#include "testing/test_util.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "clapf/data/dataset_builder.h"
#include "clapf/util/logging.h"
#include "clapf/util/random.h"

namespace clapf {
namespace testing {

Dataset MakeDataset(int32_t num_users, int32_t num_items,
                    const std::vector<std::pair<UserId, ItemId>>& pairs) {
  DatasetBuilder builder(num_users, num_items);
  CLAPF_CHECK_OK(builder.AddAll(pairs));
  return builder.Build();
}

Dataset MakeLearnableDataset(int32_t num_users, int32_t num_items,
                             int32_t items_per_user, uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder builder(num_users, num_items);
  const int32_t half = num_items / 2;
  for (UserId u = 0; u < num_users; ++u) {
    const bool likes_low = (u % 2) == 0;
    int32_t added = 0;
    int32_t guard = 0;
    while (added < items_per_user && guard < 100 * items_per_user) {
      ++guard;
      ItemId i;
      if (rng.Bernoulli(0.9)) {
        // In-block item.
        i = likes_low
                ? static_cast<ItemId>(rng.Uniform(half))
                : static_cast<ItemId>(half + rng.Uniform(num_items - half));
      } else {
        i = static_cast<ItemId>(rng.Uniform(num_items));
      }
      CLAPF_CHECK_OK(builder.Add(u, i));
      ++added;
    }
  }
  return builder.Build();
}

Result<std::vector<ScoredItem>> RetrieveTopK(const RetrievalLayers& layers,
                                             const Dataset& history,
                                             UserId u, size_t k,
                                             const QueryOptions& options) {
  const int32_t n = layers.num_items();
  std::vector<bool> excluded(static_cast<size_t>(n), false);
  for (ItemId i : history.ItemsOf(u)) excluded[static_cast<size_t>(i)] = true;
  for (ItemId i : options.exclude) {
    if (i >= 0 && i < n) excluded[static_cast<size_t>(i)] = true;
  }
  k = std::min(k, static_cast<size_t>(n));
  const size_t min_items =
      k + history.ItemsOf(u).size() + options.exclude.size();
  auto top = Retrieve(layers, u, k, &excluded, min_items, options,
                      DeadlineFrom(options), nullptr, nullptr, nullptr);
  if (top.ok()) ApplyMinScore(options.min_score, &*top);
  return top;
}

FactorModel MakeExactModel(const std::vector<std::vector<double>>& scores) {
  const int32_t n = static_cast<int32_t>(scores.size());
  CLAPF_CHECK(n > 0);
  const int32_t m = static_cast<int32_t>(scores[0].size());
  // One factor per user: U_u = e_u, V_i[u] = scores[u][i].
  FactorModel model(n, m, n, /*use_item_bias=*/false);
  for (int32_t u = 0; u < n; ++u) {
    CLAPF_CHECK(static_cast<int32_t>(scores[u].size()) == m);
    model.UserFactors(u)[static_cast<size_t>(u)] = 1.0;
    for (int32_t i = 0; i < m; ++i) {
      model.ItemFactors(i)[static_cast<size_t>(u)] = scores[u][i];
    }
  }
  return model;
}

FactorModel MakeClusteredItemModel(int32_t num_users, int32_t num_items,
                                   int32_t num_factors, int32_t num_centers,
                                   double noise, uint64_t seed) {
  CLAPF_CHECK(num_centers > 0);
  FactorModel model(num_users, num_items, num_factors);
  Rng rng(seed);
  std::vector<double> centers(static_cast<size_t>(num_centers) *
                              static_cast<size_t>(num_factors));
  for (double& c : centers) c = rng.NextGaussian() * 0.5;
  for (UserId u = 0; u < num_users; ++u) {
    auto uf = model.UserFactors(u);
    for (int32_t f = 0; f < num_factors; ++f) {
      uf[static_cast<size_t>(f)] = rng.NextGaussian() * 0.5;
    }
  }
  for (ItemId i = 0; i < num_items; ++i) {
    const double* center =
        centers.data() +
        static_cast<size_t>(i % num_centers) * static_cast<size_t>(num_factors);
    auto vf = model.ItemFactors(i);
    for (int32_t f = 0; f < num_factors; ++f) {
      vf[static_cast<size_t>(f)] =
          center[static_cast<size_t>(f)] + rng.NextGaussian() * noise;
    }
    model.ItemBias(i) = rng.NextGaussian() * noise;
  }
  return model;
}

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  CLAPF_CHECK(static_cast<bool>(out)) << "cannot write " << path;
  out << content;
  return path;
}

}  // namespace testing
}  // namespace clapf

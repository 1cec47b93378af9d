// Differential test of the ann-off packed path on ANN slices. A slice with
// an IVF index keeps one float copy of its catalog, the index's
// cluster-ordered repack, and queries with `ann` off scan all of it through
// the index's map. Their answers must equal a packed-only server's, which
// scans a base-order repack: ids and score bits, on tie-heavy, clustered and
// tiny catalogs (n not a multiple of 8, n < k), for k in {1, 10, n, n + 5},
// with and without exclusions and min_score, at 1 and 3 shards, under every
// supported kernel, with pq on half the cases. A canary AUC floor above
// any reachable AUC refuses both servers with the same message, and a
// shard's ANN slice holds no base-order repack. The race variant swaps
// models under ann-off queries. Part of the `ann` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "clapf/model/score_kernel.h"
#include "clapf/serving/model_shard.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

// Items from four prototypes with biases in {0, 1} and user factors in
// {-1, 0, 1}: most scores tie, so the (score desc, id asc) tie-break
// decides most ranks.
FactorModel TieHeavyCatalog(int32_t users, int32_t items, int32_t d,
                            uint64_t seed) {
  FactorModel model(users, items, d, /*use_item_bias=*/true);
  Rng rng(seed);
  std::vector<std::vector<double>> prototypes(4, std::vector<double>(d));
  for (auto& p : prototypes) {
    for (double& x : p) x = std::floor(rng.NextDouble() * 3.0) - 1.0;
  }
  for (UserId u = 0; u < users; ++u) {
    for (double& x : model.UserFactors(u)) {
      x = std::floor(rng.NextDouble() * 3.0) - 1.0;
    }
  }
  for (ItemId i = 0; i < items; ++i) {
    const auto& p = prototypes[rng.Uniform(prototypes.size())];
    std::copy(p.begin(), p.end(), model.ItemFactors(i).begin());
    model.ItemBias(i) = std::floor(rng.NextDouble() * 2.0);
  }
  return model;
}

ServerOptions Options(int32_t shards, bool ann, bool pq) {
  ServerOptions options;
  options.num_threads = 2;
  options.num_shards = shards;
  options.packed = true;
  options.ann = ann;
  options.ivf.pq = pq;
  // The answers under test are the ann-off ones: the recall floor would
  // only refuse indexes over catalogs built to tie.
  options.canary.ann_recall_floor = 0.0;
  return options;
}

bool SameAnswer(const std::vector<ScoredItem>& a,
                const std::vector<ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].item != b[r].item ||
        std::memcmp(&a[r].score, &b[r].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The ann-off query variants: plain, exclusions, a score floor, both.
std::vector<QueryOptions> QueryVariants(int32_t items, Rng& rng) {
  std::vector<QueryOptions> variants(4);
  for (int v : {1, 3}) {
    for (int e = 0; e < 3; ++e) {
      variants[static_cast<size_t>(v)].exclude.push_back(static_cast<ItemId>(
          rng.Uniform(static_cast<uint64_t>(items))));
    }
  }
  variants[2].min_score = 0.5;
  variants[3].min_score = -0.25;
  return variants;
}

struct Catalog {
  std::string name;
  FactorModel model;
  Dataset history;
};

std::vector<Catalog> Catalogs() {
  std::vector<Catalog> catalogs;
  catalogs.push_back({"tie-heavy 203", TieHeavyCatalog(24, 203, 6, 11),
                      testing::MakeLearnableDataset(24, 203, 8, 12)});
  catalogs.push_back(
      {"clustered 1001",
       testing::MakeClusteredItemModel(24, 1001, 8, 10, 0.1, 13),
       testing::MakeLearnableDataset(24, 1001, 10, 14)});
  catalogs.push_back({"tiny 5", TieHeavyCatalog(6, 5, 3, 15),
                      testing::MakeLearnableDataset(6, 5, 2, 16)});
  return catalogs;
}

std::vector<ScoreKernel> SupportedKernels() {
  std::vector<ScoreKernel> kernels;
  for (ScoreKernel k : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
    if (ScoreKernelSupported(k)) kernels.push_back(k);
  }
  return kernels;
}

class AnnOffDiffTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearScoreKernelOverride(); }
};

TEST_F(AnnOffDiffTest, AnnOffAnswersEqualAPackedOnlyServers) {
  int cases = 0;
  for (const Catalog& c : Catalogs()) {
    const int32_t n = c.model.num_items();
    for (ScoreKernel kernel : SupportedKernels()) {
      ForceScoreKernel(kernel);
      for (int32_t shards : {1, 3}) {
        const bool pq = (cases++ % 2) == 1;
        SCOPED_TRACE(c.name + " kernel " + ScoreKernelName(kernel) +
                     " shards " + std::to_string(shards) +
                     (pq ? " pq" : ""));
        ModelServer ann(c.history, Options(shards, true, pq));
        ModelServer plain(c.history, Options(shards, false, false));
        ASSERT_TRUE(ann.PublishModel(c.model).ok());
        ASSERT_TRUE(plain.PublishModel(c.model).ok());
        Rng rng(static_cast<uint64_t>(n) * 31 + static_cast<uint64_t>(shards));
        const std::vector<QueryOptions> variants = QueryVariants(n, rng);
        for (UserId u = 0; u < c.model.num_users(); u += 3) {
          for (size_t k : {size_t{1}, size_t{10}, static_cast<size_t>(n),
                           static_cast<size_t>(n) + 5}) {
            for (size_t v = 0; v < variants.size(); ++v) {
              auto got = ann.Recommend(u, k, variants[v]);
              auto want = plain.Recommend(u, k, variants[v]);
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              ASSERT_TRUE(want.ok()) << want.status().ToString();
              EXPECT_TRUE(SameAnswer(*got, *want))
                  << "user " << u << " k " << k << " variant " << v;
            }
          }
        }
      }
      ClearScoreKernelOverride();
    }
  }
}

TEST_F(AnnOffDiffTest, AucFloorRefusesBothServersWithTheSameMessage) {
  for (const Catalog& c : Catalogs()) {
    if (c.model.num_items() < 100) continue;  // too few negatives to probe
    for (int32_t shards : {1, 3}) {
      SCOPED_TRACE(c.name + " shards " + std::to_string(shards));
      ServerOptions with_ann = Options(shards, true, shards == 3);
      ServerOptions packed_only = Options(shards, false, false);
      with_ann.canary.min_auc = packed_only.canary.min_auc = 1.01;
      ModelServer ann(c.history, with_ann);
      ModelServer plain(c.history, packed_only);
      const Status refused = ann.PublishModel(c.model);
      const Status want = plain.PublishModel(c.model);
      ASSERT_FALSE(want.ok());
      EXPECT_EQ(refused.code(), want.code());
      EXPECT_EQ(refused.message(), want.message());
      EXPECT_NE(want.message().find("sampled AUC"), std::string::npos)
          << want.message();
    }
  }
}

TEST_F(AnnOffDiffTest, AnAnnSliceHoldsNoBaseOrderRepack) {
  const Catalog c = std::move(Catalogs()[1]);
  const std::vector<double> popularity(
      static_cast<size_t>(c.model.num_items()), 1.0);
  const ModelShard shard(0, 0, c.model.num_items(), c.history, popularity);
  IvfGateOptions gate;
  gate.recall_floor = 0.0;
  auto ann = shard.BuildSlice(c.model, true, false, 64, "ann", &gate);
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  EXPECT_EQ((*ann)->packed, nullptr);
  ASSERT_NE((*ann)->ivf, nullptr);
  EXPECT_EQ((*ann)->served_packed(), &(*ann)->ivf->packed());
  EXPECT_EQ((*ann)->served_map(), (*ann)->ivf->local_to_global_data());
  EXPECT_TRUE((*ann)->agreement.has_value());

  auto plain = shard.BuildSlice(c.model, true, false, 64, "plain");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_NE((*plain)->packed, nullptr);
  EXPECT_EQ((*plain)->served_packed(), (*plain)->packed.get());
  EXPECT_EQ((*plain)->served_map(), nullptr);
}

// Ann-off queries race hot swaps between two models on an ANN server;
// every answer must be the packed-only answer of one of the two models.
TEST_F(AnnOffDiffTest, AnnOffQueriesRaceHotSwaps) {
  const Catalog c = std::move(Catalogs()[1]);
  FactorModel other = c.model;
  for (ItemId i = 0; i < other.num_items(); i += 7) {
    other.ItemFactors(i)[0] += 0.5;
  }
  for (int32_t shards : {1, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ModelServer ann(c.history, Options(shards, true, shards == 3));
    ModelServer plain_a(c.history, Options(shards, false, false));
    ModelServer plain_b(c.history, Options(shards, false, false));
    ASSERT_TRUE(ann.PublishModel(c.model).ok());
    ASSERT_TRUE(plain_a.PublishModel(c.model).ok());
    ASSERT_TRUE(plain_b.PublishModel(other).ok());
    const UserId kUsers = c.model.num_users();
    std::vector<std::vector<ScoredItem>> want_a, want_b;
    for (UserId u = 0; u < kUsers; ++u) {
      want_a.push_back(*plain_a.Recommend(u, 10, QueryOptions()));
      want_b.push_back(*plain_b.Recommend(u, 10, QueryOptions()));
    }
    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0}, answered{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&, t] {
        for (int q = 0; !stop.load() || q < 50; ++q) {
          const UserId u = static_cast<UserId>((q * 7 + t) % kUsers);
          auto got = ann.Recommend(u, 10, QueryOptions());
          if (!got.ok()) continue;  // shed under load
          ++answered;
          const size_t x = static_cast<size_t>(u);
          if (!SameAnswer(*got, want_a[x]) && !SameAnswer(*got, want_b[x])) {
            ++mismatches;
          }
        }
      });
    }
    for (int swap = 0; swap < 8; ++swap) {
      EXPECT_TRUE(ann.PublishModel(swap % 2 == 0 ? other : c.model).ok());
    }
    stop.store(true);
    for (auto& t : clients) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(answered.load(), 1);
  }
}

}  // namespace
}  // namespace clapf

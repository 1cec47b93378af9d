#include "clapf/sampling/dss_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "clapf/data/synthetic.h"
#include "clapf/obs/metrics.h"
#include "clapf/sampling/uniform_sampler.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

// A model with informative structure so adaptivity is measurable.
FactorModel MakeWarmModel(const Dataset& ds, uint64_t seed) {
  FactorModel model(ds.num_users(), ds.num_items(), 4);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  return model;
}

Dataset MediumData() {
  SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 120;
  cfg.num_interactions = 600;
  cfg.seed = 21;
  return *GenerateSynthetic(cfg);
}

TEST(DssSamplerTest, TriplesAreValid) {
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 1);
  DssOptions opts;
  DssSampler sampler(&ds, &model, opts, 7);
  for (int n = 0; n < 2000; ++n) {
    Triple t = sampler.Sample();
    EXPECT_TRUE(ds.IsObserved(t.u, t.i));
    EXPECT_TRUE(ds.IsObserved(t.u, t.k));
    EXPECT_FALSE(ds.IsObserved(t.u, t.j));
  }
}

TEST(DssSamplerTest, DeterministicGivenSeed) {
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 2);
  DssOptions opts;
  DssSampler a(&ds, &model, opts, 42);
  DssSampler b(&ds, &model, opts, 42);
  for (int n = 0; n < 200; ++n) {
    Triple ta = a.Sample();
    Triple tb = b.Sample();
    EXPECT_EQ(ta.u, tb.u);
    EXPECT_EQ(ta.i, tb.i);
    EXPECT_EQ(ta.k, tb.k);
    EXPECT_EQ(ta.j, tb.j);
  }
}

TEST(DssSamplerTest, NegativeOversamplingPicksHigherScoredJ) {
  // DSS draws j from the head of factor rankings, so the sampled negatives
  // should score higher under the model than uniform negatives.
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 3);
  DssOptions opts;
  opts.variant = ClapfVariant::kMrr;
  DssSampler dss(&ds, &model, opts, 11);
  UniformTripleSampler uniform(&ds, 11);

  double dss_sum = 0.0, uni_sum = 0.0;
  const int draws = 4000;
  for (int n = 0; n < draws; ++n) {
    Triple td = dss.Sample();
    Triple tu = uniform.Sample();
    dss_sum += model.Score(td.u, td.j);
    uni_sum += model.Score(tu.u, tu.j);
  }
  EXPECT_GT(dss_sum / draws, uni_sum / draws);
}

TEST(DssSamplerTest, MapVariantPicksLowScoredCompanion) {
  // CLAPF-MAP draws k from the bottom of the observed ranking; CLAPF-MRR
  // from the top. Compare mean model scores of the sampled k.
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 4);
  DssOptions map_opts;
  map_opts.variant = ClapfVariant::kMap;
  DssOptions mrr_opts;
  mrr_opts.variant = ClapfVariant::kMrr;
  DssSampler map_sampler(&ds, &model, map_opts, 13);
  DssSampler mrr_sampler(&ds, &model, mrr_opts, 13);

  double map_sum = 0.0, mrr_sum = 0.0;
  const int draws = 4000;
  for (int n = 0; n < draws; ++n) {
    Triple tm = map_sampler.Sample();
    Triple tr = mrr_sampler.Sample();
    map_sum += model.Score(tm.u, tm.k);
    mrr_sum += model.Score(tr.u, tr.k);
  }
  EXPECT_LT(map_sum / draws, mrr_sum / draws);
}

TEST(DssSamplerTest, PartialModesDegradeGracefully) {
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 5);

  DssOptions pos_only;
  pos_only.adaptive_negative = false;
  DssSampler positive(&ds, &model, pos_only, 17);
  EXPECT_STREQ(positive.name(), "PositiveSampling");

  DssOptions neg_only;
  neg_only.adaptive_positive = false;
  DssSampler negative(&ds, &model, neg_only, 17);
  EXPECT_STREQ(negative.name(), "NegativeSampling");

  DssOptions full;
  DssSampler dss(&ds, &model, full, 17);
  EXPECT_STREQ(dss.name(), "DSS");

  for (int n = 0; n < 500; ++n) {
    for (DssSampler* s : {&positive, &negative, &dss}) {
      Triple t = s->Sample();
      EXPECT_TRUE(ds.IsObserved(t.u, t.i));
      EXPECT_TRUE(ds.IsObserved(t.u, t.k));
      EXPECT_FALSE(ds.IsObserved(t.u, t.j));
    }
  }
}

TEST(DssSamplerTest, RefreshHappensOnSchedule) {
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 6);
  DssOptions opts;
  opts.refresh_interval = 100;
  DssSampler sampler(&ds, &model, opts, 19);
  const int64_t initial = sampler.refresh_count();
  for (int n = 0; n < 350; ++n) sampler.Sample();
  EXPECT_EQ(sampler.refresh_count(), initial + 3);
}

TEST(DssSamplerTest, SingleItemUserStillSamples) {
  Dataset ds = testing::MakeDataset(1, 10, {{0, 4}});
  FactorModel model = MakeWarmModel(ds, 7);
  DssOptions opts;
  DssSampler sampler(&ds, &model, opts, 23);
  for (int n = 0; n < 100; ++n) {
    Triple t = sampler.Sample();
    EXPECT_EQ(t.i, 4);
    EXPECT_EQ(t.k, 4);
    EXPECT_NE(t.j, 4);
  }
}

TEST(DssSamplerTest, ModesWithoutTheAdaptiveNegativeNeverRefresh) {
  // PositiveSampling and the degenerate mode never read the rank lists, so
  // they never build or refresh them, however short the interval.
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 8);
  for (bool adaptive_positive : {true, false}) {
    MetricsRegistry reg;
    DssOptions opts;
    opts.adaptive_positive = adaptive_positive;
    opts.adaptive_negative = false;
    opts.refresh_interval = 1;
    opts.metrics = &reg;
    DssSampler sampler(&ds, &model, opts, 29);
    for (int n = 0; n < 500; ++n) sampler.Sample();
    EXPECT_EQ(sampler.refresh_count(), 0);
    EXPECT_EQ(reg.GetCounter("sampler.dss.rebuilds_total")->Value(), 0);
    EXPECT_EQ(reg.GetCounter("sampler.dss.draws_total")->Value(), 500);
  }
}

TEST(DssSamplerTest, NanFactorsStillYieldValidTriples) {
  // Where a NaN ranks is unspecified, but a draw must still return an
  // observed k and an unobserved j.
  Dataset ds = MediumData();
  FactorModel model = MakeWarmModel(ds, 9);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ItemId i = 0; i < ds.num_items(); i += 3) {
    for (double& x : model.ItemFactors(i)) x = i % 2 == 0 ? nan : -nan;
  }
  model.UserFactors(0)[1] = nan;
  for (ClapfVariant variant : {ClapfVariant::kMap, ClapfVariant::kMrr}) {
    DssOptions opts;
    opts.variant = variant;
    opts.refresh_interval = 50;
    DssSampler sampler(&ds, &model, opts, 31);
    for (int n = 0; n < 2000; ++n) {
      Triple t = sampler.Sample();
      EXPECT_TRUE(ds.IsObserved(t.u, t.i));
      EXPECT_TRUE(ds.IsObserved(t.u, t.k));
      EXPECT_FALSE(ds.IsObserved(t.u, t.j));
    }
  }
}

// The pair nth_element pick SampleObservedAdaptive ran before the key
// quickselect, kept as the reference.
ItemId PairNthElementPick(const FactorModel& model,
                          std::span<const ItemId> items, int32_t q,
                          bool reversed, size_t nth) {
  std::vector<std::pair<double, ItemId>> scratch;
  for (ItemId i : items) {
    const double v = model.ItemFactors(i)[static_cast<size_t>(q)];
    scratch.emplace_back(reversed ? -v : v, i);
  }
  std::nth_element(
      scratch.begin(), scratch.begin() + static_cast<ptrdiff_t>(nth),
      scratch.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
  return scratch[nth].second;
}

// A sorted sample of `n` distinct ids below `m`, like a CSR row.
std::vector<ItemId> Row(int32_t m, size_t n, Rng& rng) {
  std::vector<ItemId> ids(static_cast<size_t>(m));
  std::iota(ids.begin(), ids.end(), 0);
  for (size_t x = 0; x < n; ++x) {
    std::swap(ids[x], ids[x + rng.Uniform(ids.size() - x)]);
  }
  ids.resize(n);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(DssPositivePickTest, MatchesThePairNthElementPickAtEveryRank) {
  // Tie-heavy rows: factor 0 takes three values with ±0.0 among them,
  // factor 1 one value, factor 2 subnormals and infinities, factor 3 is
  // Gaussian (few ties).
  constexpr int32_t m = 1000;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  FactorModel model(1, m, 4);
  Rng rng(41);
  for (ItemId i = 0; i < m; ++i) {
    auto v = model.ItemFactors(i);
    static constexpr double kFew[] = {-0.0, 0.0, 0.75};
    static constexpr double kEdges[] = {kInf, -kInf, kDenorm, -kDenorm, 0.0};
    v[0] = kFew[rng.Uniform(3)];
    v[1] = -2.0;
    v[2] = kEdges[rng.Uniform(5)];
    v[3] = rng.NextGaussian();
  }
  std::vector<uint64_t> keys, scratch;
  for (size_t n : {1, 2, 3, 5, 16, 76, 333}) {
    const std::vector<ItemId> row = Row(m, n, rng);
    for (int32_t q = 0; q < 4; ++q) {
      for (bool reversed : {false, true}) {
        for (bool from_top : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " q=" << q << " reversed=" << reversed
                       << " from_top=" << from_top);
          for (size_t pos = 0; pos < n; ++pos) {
            const size_t nth = from_top ? pos : n - 1 - pos;
            ASSERT_EQ(ObservedItemAtRank(model, row, q, reversed, nth, &keys,
                                         &scratch),
                      PairNthElementPick(model, row, q, reversed, nth))
                << "pos=" << pos;
          }
        }
      }
    }
  }
}

// Key ranks that make every median-of-three pivot the second smallest key
// of its range while the largest key is sought: each round of the
// quickselect then drops only two keys, so it reaches its depth limit and
// hands the rest to std::nth_element. Mirrors the partition's layout: the
// keys above the pivot come next, in reverse order of appearance.
std::vector<int> PivotKillerRanks(size_t n) {
  std::vector<int> rank(n, -1);
  int next = 0;
  std::vector<size_t> range(n);
  std::iota(range.begin(), range.end(), 0);
  while (range.size() >= 3) {
    const size_t len = range.size();
    int sampled[3];
    const size_t at[3] = {range[0], range[len / 2], range[len - 1]};
    for (int s = 0; s < 3; ++s) {
      if (rank[at[s]] < 0) rank[at[s]] = next++;
      sampled[s] = rank[at[s]];
    }
    std::sort(sampled, sampled + 3);
    std::vector<size_t> above;
    for (auto it = range.rbegin(); it != range.rend(); ++it) {
      if (rank[*it] < 0 || rank[*it] > sampled[1]) above.push_back(*it);
    }
    range = std::move(above);
  }
  for (int& r : rank) {
    if (r < 0) r = next++;
  }
  return rank;
}

TEST(DssPositivePickTest, PivotKillerRowFallsBackAndStaysExact) {
  constexpr size_t n = 200;
  const std::vector<int> ranks = PivotKillerRanks(n);
  FactorModel model(1, static_cast<int32_t>(n), 1);
  std::vector<ItemId> row(n);
  for (size_t x = 0; x < n; ++x) {
    row[x] = static_cast<ItemId>(x);
    // Descending value order is ascending rank order.
    model.ItemFactors(row[x])[0] = -static_cast<double>(ranks[x]);
  }
  std::vector<uint64_t> keys, scratch;
  for (size_t nth = 0; nth < n; ++nth) {
    ASSERT_EQ(ObservedItemAtRank(model, row, 0, false, nth, &keys, &scratch),
              PairNthElementPick(model, row, 0, false, nth))
        << "nth=" << nth;
  }
  // The sought key: the largest rank, i.e. the smallest value.
  const auto last = std::max_element(ranks.begin(), ranks.end());
  EXPECT_EQ(ObservedItemAtRank(model, row, 0, false, n - 1, &keys, &scratch),
            row[static_cast<size_t>(last - ranks.begin())]);
}

}  // namespace
}  // namespace clapf

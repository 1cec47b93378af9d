#include "clapf/sampling/rank_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "clapf/util/random.h"

namespace clapf {
namespace {

TEST(FactorRankListTest, RanksDescendingPerFactor) {
  FactorModel model(1, 4, 2);
  // Factor 0 values: item0=0.1, item1=0.9, item2=0.5, item3=-0.3.
  model.ItemFactors(0)[0] = 0.1;
  model.ItemFactors(1)[0] = 0.9;
  model.ItemFactors(2)[0] = 0.5;
  model.ItemFactors(3)[0] = -0.3;
  FactorRankList list(&model);

  EXPECT_EQ(list.ItemAt(0, 0, false), 1);
  EXPECT_EQ(list.ItemAt(0, 1, false), 2);
  EXPECT_EQ(list.ItemAt(0, 2, false), 0);
  EXPECT_EQ(list.ItemAt(0, 3, false), 3);
}

TEST(FactorRankListTest, ReversedReadsBottomUp) {
  FactorModel model(1, 3, 1);
  model.ItemFactors(0)[0] = 1.0;
  model.ItemFactors(1)[0] = 2.0;
  model.ItemFactors(2)[0] = 3.0;
  FactorRankList list(&model);
  EXPECT_EQ(list.ItemAt(0, 0, true), 0);   // lowest value first
  EXPECT_EQ(list.ItemAt(0, 2, true), 2);
}

TEST(FactorRankListTest, RefreshTracksModelChanges) {
  FactorModel model(1, 2, 1);
  model.ItemFactors(0)[0] = 1.0;
  model.ItemFactors(1)[0] = 0.0;
  FactorRankList list(&model);
  EXPECT_EQ(list.ItemAt(0, 0, false), 0);

  model.ItemFactors(1)[0] = 5.0;  // stale until refresh
  EXPECT_EQ(list.ItemAt(0, 0, false), 0);
  list.Refresh();
  EXPECT_EQ(list.ItemAt(0, 0, false), 1);
  EXPECT_EQ(list.refresh_count(), 2);  // constructor + explicit
}

TEST(FactorRankListTest, TiesBrokenByItemId) {
  FactorModel model(1, 3, 1);
  // All equal factor values.
  FactorRankList list(&model);
  EXPECT_EQ(list.ItemAt(0, 0, false), 0);
  EXPECT_EQ(list.ItemAt(0, 1, false), 1);
  EXPECT_EQ(list.ItemAt(0, 2, false), 2);
}

TEST(FactorRankListTest, EachFactorIndependentlyRanked) {
  FactorModel model(1, 2, 2);
  model.ItemFactors(0)[0] = 1.0;  // factor 0: item0 > item1
  model.ItemFactors(1)[0] = 0.0;
  model.ItemFactors(0)[1] = 0.0;  // factor 1: item1 > item0
  model.ItemFactors(1)[1] = 1.0;
  FactorRankList list(&model);
  EXPECT_EQ(list.ItemAt(0, 0, false), 0);
  EXPECT_EQ(list.ItemAt(1, 0, false), 1);
}

// The comparator sort Refresh ran before the radix sort, kept as the
// reference: factor q's values copied into a key vector, ids sorted by value
// descending, ties by ascending id.
std::vector<ItemId> ComparatorRanking(const FactorModel& model, int32_t q) {
  const int32_t m = model.num_items();
  std::vector<double> keys(static_cast<size_t>(m));
  for (ItemId i = 0; i < m; ++i) {
    keys[static_cast<size_t>(i)] = model.ItemFactors(i)[static_cast<size_t>(q)];
  }
  std::vector<ItemId> ranking(static_cast<size_t>(m));
  std::iota(ranking.begin(), ranking.end(), 0);
  std::sort(ranking.begin(), ranking.end(), [&](ItemId a, ItemId b) {
    const double va = keys[static_cast<size_t>(a)];
    const double vb = keys[static_cast<size_t>(b)];
    if (va != vb) return va > vb;
    return a < b;
  });
  return ranking;
}

std::vector<ItemId> Ranking(const FactorRankList& list, int32_t q,
                            bool reversed) {
  std::vector<ItemId> ranking(static_cast<size_t>(list.num_items()));
  for (size_t p = 0; p < ranking.size(); ++p) {
    ranking[p] = list.ItemAt(q, p, reversed);
  }
  return ranking;
}

double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

// One column kind per factor, each aimed at a corner of the key encoding or
// of the radix sort.
enum ColumnKind {
  kGaussian,        // distinct values of both signs
  kAllEqual,        // one value: a single run, every digit pass skipped
  kSignedZeros,     // −0.0 and +0.0 mixed with a few other values
  kSubnormals,      // ±denorm_min multiples, ±DBL_MIN and zeros
  kInfinities,      // ±inf, ±DBL_MAX, ±1 and zeros
  kDigitStraddle,   // ±1.0 with one byte replaced, many exact duplicates
  kLowHalfOnly,     // one high half, low halves from a few values
  kFewHighHalves,   // three high halves of both signs, random low halves
  kNumColumnKinds,
};

double ColumnValue(ColumnKind kind, Rng& rng) {
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (kind) {
    case kGaussian:
      return rng.NextGaussian();
    case kAllEqual:
      return 0.25;
    case kSignedZeros: {
      static constexpr double kValues[] = {-0.0, 0.0, 0.5, -0.5, 1e-300};
      return kValues[rng.Uniform(5)];
    }
    case kSubnormals: {
      static constexpr double kValues[] = {
          kDenorm, -kDenorm, 3 * kDenorm, -3 * kDenorm, kMin, -kMin,
          0.0,     -0.0,     kMin - kDenorm};
      return kValues[rng.Uniform(9)];
    }
    case kInfinities: {
      static constexpr double kValues[] = {kInf, -kInf, kMax, -kMax,
                                           1.0,  -1.0,  0.0,  -0.0};
      return kValues[rng.Uniform(8)];
    }
    case kDigitStraddle: {
      static constexpr uint8_t kBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
      const uint64_t base =
          rng.Bernoulli(0.5) ? 0x3ff0000000000000ull : 0xbff0000000000000ull;
      const int shift = 8 * static_cast<int>(rng.Uniform(8));
      const uint64_t byte = kBytes[rng.Uniform(5)];
      return FromBits((base & ~(0xffull << shift)) | byte << shift);
    }
    case kLowHalfOnly:
      return FromBits(0x3fb9999900000000ull | rng.Uniform(64) << 7);
    case kFewHighHalves: {
      static constexpr uint64_t kHigh[] = {0x3fb9999900000000ull,
                                           0xbfb9999900000000ull,
                                           0x3fb9999a00000000ull};
      return FromBits(kHigh[rng.Uniform(3)] | rng.Uniform(1ull << 32));
    }
    case kNumColumnKinds:
      break;
  }
  return 0.0;
}

TEST(FactorRankListTest, RadixRefreshMatchesTheComparatorSort) {
  for (int32_t m : {1, 2, 255, 256, 257, 4099}) {
    FactorModel model(1, m, kNumColumnKinds);
    Rng rng(static_cast<uint64_t>(m));
    for (ItemId i = 0; i < m; ++i) {
      for (int32_t q = 0; q < kNumColumnKinds; ++q) {
        model.ItemFactors(i)[static_cast<size_t>(q)] =
            ColumnValue(static_cast<ColumnKind>(q), rng);
      }
    }
    FactorRankList list(&model);
    for (int32_t q = 0; q < kNumColumnKinds; ++q) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " column " << q);
      std::vector<ItemId> want = ComparatorRanking(model, q);
      EXPECT_EQ(Ranking(list, q, false), want);
      std::reverse(want.begin(), want.end());
      EXPECT_EQ(Ranking(list, q, true), want);
    }
  }
}

TEST(FactorRankListTest, RefreshAfterTheModelMovesMatchesTheComparatorSort) {
  // The scratch buffers persist across refreshes; a second refresh must
  // not read anything the first one left behind.
  FactorModel model(1, 300, 3);
  Rng rng(5);
  model.InitGaussian(rng, 1.0);
  FactorRankList list(&model);
  for (double& x : model.mutable_item_factor_data()) {
    x = std::round(x * 2.0) / 2.0;  // a handful of tied values
  }
  list.Refresh();
  for (int32_t q = 0; q < 3; ++q) {
    EXPECT_EQ(Ranking(list, q, false), ComparatorRanking(model, q));
  }
}

TEST(FactorRankListTest, NanFactorsStillYieldAPermutation) {
  // The comparator is no strict weak ordering on NaN, so no NaN position is
  // specified; the ranking must still hold every item once, and the
  // numbers keep their exact order around the NaNs.
  constexpr int32_t m = 600;
  FactorModel model(1, m, 1);
  Rng rng(9);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ItemId i = 0; i < m; ++i) {
    const uint64_t pick = rng.Uniform(8);
    model.ItemFactors(i)[0] =
        pick == 0 ? nan : pick == 1 ? -nan : std::round(rng.NextGaussian());
  }
  FactorRankList list(&model);
  const std::vector<ItemId> got = Ranking(list, 0, false);
  std::vector<ItemId> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  std::vector<ItemId> ids(static_cast<size_t>(m));
  std::iota(ids.begin(), ids.end(), 0);
  EXPECT_EQ(sorted, ids);

  std::vector<ItemId> got_numbers;
  for (ItemId i : got) {
    if (!std::isnan(model.ItemFactors(i)[0])) got_numbers.push_back(i);
  }
  // The comparator is a strict weak ordering on the numbers alone.
  std::vector<ItemId> want_numbers;
  for (ItemId i = 0; i < m; ++i) {
    if (!std::isnan(model.ItemFactors(i)[0])) want_numbers.push_back(i);
  }
  std::sort(want_numbers.begin(), want_numbers.end(), [&](ItemId a, ItemId b) {
    const double va = model.ItemFactors(a)[0];
    const double vb = model.ItemFactors(b)[0];
    if (va != vb) return va > vb;
    return a < b;
  });
  EXPECT_EQ(got_numbers, want_numbers);
}

}  // namespace
}  // namespace clapf

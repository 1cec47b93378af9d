// Differential test of the tiled, parallel packed-agreement gate against a
// plain serial reference kept here: one full exact scan and one packed scan
// per sampled user, items in order. Random models with the item bias on and
// off, item counts that are neither a multiple of the 8-item block nor of
// the gate's tile, fewer users than the sample size, and one corrupted
// packed lane per case. At every thread count the returned Status must
// equal the reference's — code and message, so the same (user, item), the
// same delta and the same bound. Part of the `kernel` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "clapf/model/packed_snapshot.h"
#include "clapf/util/random.h"

namespace clapf {
namespace {

// The serial agreement check: users 0, s, 2s, ... with s = max(1, U /
// min(N, U)), every item in order, the first (user, item) whose packed
// score is off by more than PackedScoreBound refuses.
Status ReferenceAgreement(const FactorModel& model,
                          const PackedSnapshot& packed, int32_t sample_users,
                          const std::string& context) {
  if (model.num_users() == 0 || model.num_items() == 0 || sample_users <= 0) {
    return Status::OK();
  }
  const int32_t d = model.num_factors();
  const int32_t stride = std::max(
      1, model.num_users() / std::min(sample_users, model.num_users()));
  std::vector<double> exact, approx(static_cast<size_t>(model.num_items()));
  for (UserId u = 0; u < model.num_users(); u += stride) {
    model.ScoreAllItems(u, &exact);
    packed.ScoreItemRange(u, 0, model.num_items(), &approx);
    auto uf = model.UserFactors(u);
    for (ItemId i = 0; i < model.num_items(); ++i) {
      const double delta = std::abs(exact[static_cast<size_t>(i)] -
                                    approx[static_cast<size_t>(i)]);
      auto vf = model.ItemFactors(i);
      double l1 = model.use_item_bias() ? std::abs(model.ItemBias(i)) : 0.0;
      for (int32_t f = 0; f < d; ++f) {
        l1 += std::abs(uf[static_cast<size_t>(f)] *
                       vf[static_cast<size_t>(f)]);
      }
      const double bound = PackedScoreBound(d, l1);
      if (delta > bound) {
        return Status::FailedPrecondition(
            context + ": packed score for user " + std::to_string(u) +
            " item " + std::to_string(i) + " off by " +
            std::to_string(delta) + " (bound " + std::to_string(bound) +
            ")");
      }
    }
  }
  return Status::OK();
}

FactorModel RandomModel(int32_t users, int32_t items, int32_t d, bool bias,
                        uint64_t seed) {
  FactorModel model(users, items, d, bias);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  if (bias) {
    for (ItemId i = 0; i < items; ++i) {
      model.ItemBias(i) = 0.3 * rng.NextGaussian();
    }
  }
  return model;
}

// Moves one packed float of a real item (bias lane or one factor lane) far
// outside the bound; returns the item.
ItemId CorruptRandomLane(PackedSnapshot* packed, Rng& rng) {
  const ItemId item = static_cast<ItemId>(
      rng.Uniform(static_cast<uint64_t>(packed->num_items())));
  const size_t row = static_cast<size_t>(
      rng.Uniform(static_cast<uint64_t>(packed->num_factors() + 1)));
  float* lane = packed->mutable_block_data() +
                static_cast<size_t>(item / kPackedBlockItems) *
                    packed->block_stride() +
                row * kPackedBlockItems + item % kPackedBlockItems;
  *lane += 4.0f;
  return item;
}

void ExpectSameVerdict(const FactorModel& model, const PackedSnapshot& packed,
                       int32_t sample_users, const std::string& what) {
  const Status want = ReferenceAgreement(model, packed, sample_users, what);
  for (int threads : {1, 2, 4}) {
    const Status got =
        VerifyPackedAgreement(model, packed, sample_users, what, threads);
    EXPECT_EQ(got.code(), want.code()) << what << " threads " << threads;
    EXPECT_EQ(got.message(), want.message())
        << what << " threads " << threads;
  }
}

TEST(PackedAgreementDiffTest, TiledGateMatchesSerialReference) {
  // Item counts around the 8-item block and the 1024-item tile, user
  // counts below, at and above the 64-user sample.
  const int32_t kItems[] = {1, 7, 13, 1023, 1025, 2051, 3001};
  const int32_t kUsers[] = {1, 5, 64, 130};
  uint64_t seed = 1;
  for (int32_t items : kItems) {
    for (int32_t users : kUsers) {
      for (bool bias : {true, false}) {
        ++seed;
        Rng rng(seed * 7919);
        const int32_t d = 1 + static_cast<int32_t>(rng.Uniform(40));
        const FactorModel model = RandomModel(users, items, d, bias, seed);
        PackedSnapshot packed = PackedSnapshot::Build(model);
        const std::string what = "case items=" + std::to_string(items) +
                                 " users=" + std::to_string(users) +
                                 " d=" + std::to_string(d) +
                                 (bias ? " bias" : " no-bias");
        ExpectSameVerdict(model, packed, 64, what + " clean");
        EXPECT_TRUE(VerifyPackedAgreement(model, packed, 64, what, 4).ok())
            << what;
        const ItemId bad = CorruptRandomLane(&packed, rng);
        ExpectSameVerdict(model, packed, 64,
                          what + " corrupt item " + std::to_string(bad));
        EXPECT_FALSE(VerifyPackedAgreement(model, packed, 64, what, 2).ok())
            << what << " corrupt item " << bad;
      }
    }
  }
}

TEST(PackedAgreementDiffTest, FirstViolationIsOrderedByUserThenItem) {
  // Two corrupt items in different tiles; the first sampled user cannot see
  // the lower one (its factor on the corrupted lane is zero), so the serial
  // scan names (user 0, higher item) before any (user s, lower item) — the
  // tiles must agree although the lower item's tile finishes first.
  const int32_t items = 3000, users = 40, d = 6;
  FactorModel model = RandomModel(users, items, d, true, 99);
  model.UserFactors(0)[2] = 0.0;
  PackedSnapshot packed = PackedSnapshot::Build(model);
  auto corrupt = [&](ItemId item, int32_t factor) {
    packed.mutable_block_data()[static_cast<size_t>(item / kPackedBlockItems) *
                                    packed.block_stride() +
                                static_cast<size_t>(factor + 1) *
                                    kPackedBlockItems +
                                item % kPackedBlockItems] += 4.0f;
  };
  corrupt(100, 2);   // tile 0, invisible to user 0
  corrupt(2500, 4);  // tile 2, visible to every user
  const Status want = ReferenceAgreement(model, packed, 8, "order");
  ASSERT_FALSE(want.ok());
  EXPECT_NE(want.message().find("user 0 item 2500"), std::string::npos)
      << want.message();
  ExpectSameVerdict(model, packed, 8, "order");

  // Then one item user 0 sees in every tile: every tile fails at the same
  // user, and the smallest item must still win however the tiles race.
  for (ItemId item : {2990, 2100, 1500, 1030, 600}) corrupt(item, 4);
  ExpectSameVerdict(model, packed, 8, "every tile");
  EXPECT_NE(VerifyPackedAgreement(model, packed, 8, "every tile", 4)
                .message()
                .find("user 0 item 600"),
            std::string::npos);
}

TEST(PackedAgreementDiffTest, TileReachedLateStillChecksTheFailingUser) {
  // 40 tiles; the two corrupt items sit in tiles 4 and 5, both visible to
  // user 0. Split over two workers, tile 5 is usually reached — and fails
  // at user 0 — while tile 4 is still queued behind clean tiles. Tile 4
  // must still check user 0, and its smaller item must be named.
  const int32_t items = 40 * 1024, users = 40, d = 6;
  const FactorModel model = RandomModel(users, items, d, true, 123);
  PackedSnapshot packed = PackedSnapshot::Build(model);
  for (ItemId item : {4106, 5123}) {
    packed.mutable_block_data()[static_cast<size_t>(item / kPackedBlockItems) *
                                    packed.block_stride() +
                                item % kPackedBlockItems] += 4.0f;
  }
  const Status want = ReferenceAgreement(model, packed, 8, "late");
  EXPECT_NE(want.message().find("user 0 item 4106"), std::string::npos)
      << want.message();
  ExpectSameVerdict(model, packed, 8, "late");
}

TEST(PackedAgreementDiffTest, NearBoundGapsAreDecidedByTheBoundItself) {
  // One user, so one bound per item: move item 77's packed bias lane until
  // its gap sits at a chosen multiple of PackedScoreBound, then check that
  // 1.2x the bound refuses and 0.8x passes, at every thread count — a
  // screen looser than the bound would let the first through.
  const int32_t d = 12;
  const FactorModel model = RandomModel(1, 300, d, true, 5);
  const ItemId item = 77;
  auto uf = model.UserFactors(0);
  auto vf = model.ItemFactors(item);
  double l1 = std::abs(model.ItemBias(item));
  for (int32_t f = 0; f < d; ++f) {
    l1 += std::abs(uf[static_cast<size_t>(f)] * vf[static_cast<size_t>(f)]);
  }
  const double bound = PackedScoreBound(d, l1);
  const double exact = model.Score(0, item);
  for (double ratio : {1.2, 0.8}) {
    PackedSnapshot packed = PackedSnapshot::Build(model);
    float* bias = packed.mutable_block_data() +
                  static_cast<size_t>(item / kPackedBlockItems) *
                      packed.block_stride() +
                  item % kPackedBlockItems;
    std::vector<double> scores(static_cast<size_t>(model.num_items()));
    double gap = 0.0;
    for (int step = 0; step < 4; ++step) {
      packed.ScoreItemRange(0, 0, model.num_items(), &scores);
      gap = scores[static_cast<size_t>(item)] - exact;
      *bias += static_cast<float>(ratio * bound - gap);
    }
    packed.ScoreItemRange(0, 0, model.num_items(), &scores);
    gap = scores[static_cast<size_t>(item)] - exact;
    ASSERT_NEAR(gap / bound, ratio, 0.05) << "ratio " << ratio;
    const std::string what = "ratio " + std::to_string(ratio);
    ExpectSameVerdict(model, packed, 64, what);
    EXPECT_EQ(VerifyPackedAgreement(model, packed, 64, what, 2).ok(),
              ratio < 1.0)
        << what;
  }
}

TEST(PackedAgreementDiffTest, SampleVisitsEvenlySpacedUsersPastTheCount) {
  // 20000 users at 64 samples: stride 312, users 0..19968 — 65 of them.
  const std::vector<UserId> users = GateSampleUsers(20000, 64);
  ASSERT_EQ(users.size(), 65u);
  EXPECT_EQ(users.front(), 0);
  EXPECT_EQ(users[1], 312);
  EXPECT_EQ(users.back(), 19968);
  EXPECT_EQ(GateSampleUsers(5, 64), (std::vector<UserId>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(GateSampleUsers(0, 64).empty());
  EXPECT_TRUE(GateSampleUsers(10, 0).empty());
}

}  // namespace
}  // namespace clapf

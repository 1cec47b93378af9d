// Differential test of the tiled, parallel packed-agreement gate against a
// plain serial reference kept here: one full exact scan and one packed scan
// per sampled user, items in order. Random models with the item bias on and
// off, item counts that are neither a multiple of the 8-item block nor of
// the gate's tile, fewer users than the sample size, and one corrupted
// packed lane per case. At every thread count the returned Status must
// equal the reference's — code and message, so the same (user, item), the
// same delta and the same bound. The check on the delta against a verified
// baseline must return the full check's Status under every mutation of the
// candidate, and fall back to the full check when the baseline does not
// fit. Part of the `kernel` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/score_kernel.h"
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

// ---- agreement on the delta --------------------------------------------

constexpr int32_t kDeltaSample = 64;

// A candidate (model, repack) built from a verified baseline by one
// mutation.
struct Candidate {
  FactorModel model;
  PackedSnapshot packed;
};

float* PackedLane(PackedSnapshot* packed, ItemId item, size_t row) {
  return packed->mutable_block_data() +
         static_cast<size_t>(item / kPackedBlockItems) *
             packed->block_stride() +
         row * kPackedBlockItems + item % kPackedBlockItems;
}

// The delta check against `base` (with the candidate's DiffItems against
// the baseline model as its dirty set) and the full check must both return
// the serial reference's Status, code and message, at 1, 2 and 4 threads;
// the reference must pass exactly when `want_ok`. Returns the delta's
// stamp at 4 threads.
AgreementStamp ExpectDeltaMatchesFull(const Candidate& c,
                                      const AgreementBaseline& base,
                                      const std::string& what, bool want_ok) {
  const Status want = ReferenceAgreement(c.model, c.packed, kDeltaSample,
                                         what);
  EXPECT_EQ(want.ok(), want_ok) << what << ": " << want.message();
  const std::vector<ItemId> dirty = DiffItems(c.model, *base.model, 1).items;
  AgreementBaseline baseline = base;
  baseline.dirty = &dirty;
  AgreementStamp stamp;
  for (int threads : {1, 2, 4}) {
    const Status full = VerifyPackedAgreement(c.model, c.packed, kDeltaSample,
                                              what, threads);
    const Status delta =
        VerifyPackedAgreement(c.model, c.packed, kDeltaSample, what, threads,
                              &baseline, &stamp);
    EXPECT_EQ(full.code(), want.code()) << what << " threads " << threads;
    EXPECT_EQ(full.message(), want.message())
        << what << " threads " << threads;
    EXPECT_EQ(delta.code(), want.code()) << what << " threads " << threads;
    EXPECT_EQ(delta.message(), want.message())
        << what << " threads " << threads;
  }
  return stamp;
}

TEST(PackedAgreementDiffTest, DeltaAgainstVerifiedBaselineMatchesFullCheck) {
  // Items: two blocks, one tile plus a partial block, three tiles with a
  // partial tail block. Users: fewer than the sample (all sampled), and
  // 130 (stride 2: even users sampled, odd ones not).
  const int32_t kItems[] = {13, 1025, 3001};
  const int32_t kUsers[] = {5, 130};
  uint64_t seed = 500;
  for (int32_t items : kItems) {
    for (int32_t users : kUsers) {
      for (bool bias : {true, false}) {
        ++seed;
        Rng rng(seed * 104729);
        const int32_t d = 1 + static_cast<int32_t>(rng.Uniform(24));
        const FactorModel base_model =
            RandomModel(users, items, d, bias, seed);
        const PackedSnapshot base_packed = PackedSnapshot::Build(base_model);
        AgreementStamp base_stamp;
        ASSERT_TRUE(VerifyPackedAgreement(base_model, base_packed,
                                          kDeltaSample, "baseline", 1,
                                          nullptr, &base_stamp)
                        .ok());
        ASSERT_EQ(base_stamp.pairs_checked, base_stamp.pairs_total);
        const AgreementBaseline baseline{&base_model, &base_packed,
                                         base_stamp};
        const std::vector<UserId> sampled =
            GateSampleUsers(users, kDeltaSample);
        const int64_t num_blocks = base_packed.num_blocks();

        // Items i with i % 50 == 3 move, as a drifted update moves a
        // share of the catalog; `clean` sits in a block none of them
        // touches.
        auto moved = [&](FactorModel* m) {
          for (ItemId i = 3; i < items; i += 50) {
            for (double& x : m->ItemFactors(i)) x += 0.02 * rng.NextGaussian();
          }
        };
        ItemId clean = -1;
        for (ItemId i = 0; i < items && clean < 0; ++i) {
          const ItemId first = i - i % kPackedBlockItems;
          bool touched = false;
          for (ItemId j = first; j < first + kPackedBlockItems; ++j) {
            touched = touched || (j < items && j % 50 == 3);
          }
          if (!touched) clean = i;
        }
        auto drifted = [&] {
          FactorModel m = base_model;
          moved(&m);
          PackedSnapshot p = PackedSnapshot::Build(m);
          return Candidate{std::move(m), std::move(p)};
        };
        const UserId victim = sampled.back();
        auto with_user = [&](FactorModel m, UserId u) {
          for (double& x : m.UserFactors(u)) x += 0.5;
          return m;
        };

        const std::string what = "items=" + std::to_string(items) +
                                 " users=" + std::to_string(users) +
                                 " d=" + std::to_string(d) +
                                 (bias ? " bias" : " no-bias");
        {
          const Candidate c = drifted();
          const AgreementStamp got =
              ExpectDeltaMatchesFull(c, baseline, what + " moved items", true);
          EXPECT_LE(got.pairs_checked, got.pairs_total);
          EXPECT_EQ(got.pairs_checked % static_cast<int64_t>(sampled.size()),
                    0)
              << "no user changed: every sampled user sees the same blocks";
        }
        {
          const Candidate c{base_model, PackedSnapshot::Build(base_model)};
          const AgreementStamp got =
              ExpectDeltaMatchesFull(c, baseline, what + " unchanged", true);
          EXPECT_EQ(got.pairs_checked, 0) << what;
        }
        if (clean >= 0) {
          Candidate c = drifted();
          c.model.ItemFactors(clean)[0] += 1.0;  // its repack is stale
          ExpectDeltaMatchesFull(c, baseline,
                                 what + " clean item double", false);
        }
        if (clean >= 0) {
          // Without biases the exact score ignores it: both checks pass.
          Candidate c = drifted();
          c.model.ItemBias(clean) += 1.0;
          ExpectDeltaMatchesFull(c, baseline, what + " clean item bias",
                                 !bias);
        }
        if (clean >= 0) {
          Candidate c = drifted();
          *PackedLane(&c.packed, clean, 0) += 4.0f;
          ExpectDeltaMatchesFull(c, baseline, what + " clean bias lane", false);
        }
        if (clean >= 0) {
          Candidate c = drifted();
          *PackedLane(&c.packed, clean,
                      1 + static_cast<size_t>(d - 1)) += 4.0f;
          ExpectDeltaMatchesFull(c, baseline,
                                 what + " clean factor lane", false);
        }
        if (items % kPackedBlockItems != 0) {
          Candidate c = drifted();
          *PackedLane(&c.packed, items, 1) += 4.0f;  // a pad lane
          const AgreementStamp got =
              ExpectDeltaMatchesFull(c, baseline,
                                     what + " tail pad lane", true);
          EXPECT_GT(got.pairs_checked, 0) << what;
        }
        {
          // The doubles move, the repack stays the baseline's.
          Candidate c{with_user(base_model, victim),
                      PackedSnapshot::Build(base_model)};
          const AgreementStamp got =
              ExpectDeltaMatchesFull(c, baseline,
                                     what + " user doubles", false);
          EXPECT_EQ(got.pairs_checked, num_blocks) << what;
        }
        {
          // The repack moves, the doubles stay the baseline's.
          Candidate c{base_model,
                      PackedSnapshot::Build(with_user(base_model, victim))};
          const AgreementStamp got = ExpectDeltaMatchesFull(
              c, baseline, what + " user packed floats", false);
          EXPECT_EQ(got.pairs_checked, num_blocks) << what;
        }
        if (clean >= 0) {
          // A dirty user and a corrupt clean block at once: the first
          // violation is ordered across both kinds of dirty pair.
          Candidate c{with_user(base_model, victim),
                      PackedSnapshot::Build(base_model)};
          *PackedLane(&c.packed, clean, 0) += 4.0f;
          ExpectDeltaMatchesFull(c, baseline, what + " user and block", false);
        }
        if (sampled.size() < static_cast<size_t>(users)) {
          FactorModel m = with_user(base_model, 1);  // odd: not sampled
          PackedSnapshot p = PackedSnapshot::Build(m);
          const Candidate c{std::move(m), std::move(p)};
          const AgreementStamp got =
              ExpectDeltaMatchesFull(c, baseline,
                                     what + " unsampled user", true);
          EXPECT_EQ(got.pairs_checked, 0) << what;
        }
      }
    }
  }
}

TEST(PackedAgreementDiffTest, DeltaCoversOnlyChangedBlocksAndUsers) {
  // 130 users (65 sampled), 4000 items (500 blocks). Two items in two
  // blocks move: 65 x 2 pairs. Then one sampled user moves too: that user
  // is checked on all 500 blocks, the other 64 on the 2.
  const FactorModel base_model = RandomModel(130, 4000, 9, true, 31);
  const PackedSnapshot base_packed = PackedSnapshot::Build(base_model);
  AgreementStamp base_stamp;
  ASSERT_TRUE(VerifyPackedAgreement(base_model, base_packed, kDeltaSample,
                                    "baseline", 2, nullptr, &base_stamp)
                  .ok());
  EXPECT_EQ(base_stamp.pairs_total, 65 * 500);
  EXPECT_EQ(base_stamp.pairs_checked, 65 * 500);
  EXPECT_EQ(base_stamp.kernel, ActiveScoreKernel());
  EXPECT_EQ(base_stamp.sample_users, kDeltaSample);
  const AgreementBaseline baseline{&base_model, &base_packed, base_stamp};

  FactorModel model = base_model;
  model.ItemFactors(17)[3] += 0.1;    // block 2
  model.ItemFactors(3999)[0] -= 0.1;  // block 499
  const AgreementStamp items_only =
      ExpectDeltaMatchesFull({model, PackedSnapshot::Build(model)}, baseline,
                             "two items", true);
  EXPECT_EQ(items_only.pairs_checked, 65 * 2);
  EXPECT_EQ(items_only.pairs_total, 65 * 500);

  for (double& x : model.UserFactors(64)) x *= 1.5;  // sampled (stride 2)
  const AgreementStamp with_user = ExpectDeltaMatchesFull(
      {model, PackedSnapshot::Build(model)}, baseline, "two items, a user",
      true);
  EXPECT_EQ(with_user.pairs_checked, 64 * 2 + 500);
}

TEST(PackedAgreementDiffTest, BaselineThatDoesNotFitTakesTheFullCheck) {
  const FactorModel model = RandomModel(40, 300, 6, true, 77);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  AgreementStamp stamp;
  ASSERT_TRUE(VerifyPackedAgreement(model, packed, kDeltaSample, "baseline",
                                    1, nullptr, &stamp)
                  .ok());
  const int64_t full = stamp.pairs_total;

  // Fallbacks are judged on an identical candidate with one corrupt lane:
  // a usable baseline would check only that block.
  PackedSnapshot candidate = PackedSnapshot::Build(model);
  *PackedLane(&candidate, 123, 2) += 4.0f;
  const Status want =
      VerifyPackedAgreement(model, candidate, kDeltaSample, "candidate");
  ASSERT_FALSE(want.ok());
  auto delta = [&](const AgreementBaseline& base, int32_t sample) {
    AgreementStamp got;
    const Status st = VerifyPackedAgreement(model, candidate, sample,
                                            "candidate", 2, &base, &got);
    return std::make_pair(st, got);
  };
  const std::vector<ItemId> none;  // the candidate's doubles are the model's
  {
    const auto [st, got] =
        delta({&model, &packed, stamp, &none}, kDeltaSample);
    EXPECT_EQ(st.message(), want.message());
    EXPECT_EQ(got.pairs_checked, 40);  // the fitting baseline: one block
  }
  const FactorModel more_items = RandomModel(40, 301, 6, true, 77);
  const PackedSnapshot more_items_packed = PackedSnapshot::Build(more_items);
  const FactorModel more_factors = RandomModel(40, 300, 7, true, 77);
  const PackedSnapshot more_factors_packed =
      PackedSnapshot::Build(more_factors);
  const FactorModel no_bias = RandomModel(40, 300, 6, false, 77);
  const PackedSnapshot no_bias_packed = PackedSnapshot::Build(no_bias);
  AgreementStamp other_kernel = stamp;
  other_kernel.kernel = ActiveScoreKernel() == ScoreKernel::kAvx2
                            ? ScoreKernel::kPortable
                            : ScoreKernel::kAvx2;
  AgreementStamp other_sample = stamp;
  other_sample.sample_users = kDeltaSample / 2;
  const std::pair<std::string, AgreementBaseline> kUnfit[] = {
      {"other item count", {&more_items, &more_items_packed, stamp, &none}},
      {"other factor count",
       {&more_factors, &more_factors_packed, stamp, &none}},
      {"other bias flag", {&no_bias, &no_bias_packed, stamp, &none}},
      {"other kernel", {&model, &packed, other_kernel, &none}},
      {"other sample", {&model, &packed, other_sample, &none}},
      {"repack of other dimensions",
       {&model, &more_items_packed, stamp, &none}},
      {"no model", {nullptr, &packed, stamp, &none}},
      {"no dirty set", {&model, &packed, stamp, nullptr}},
  };
  for (const auto& [name, base] : kUnfit) {
    const auto [st, got] = delta(base, kDeltaSample);
    EXPECT_EQ(st.code(), want.code()) << name;
    EXPECT_EQ(st.message(), want.message()) << name;
    EXPECT_EQ(got.pairs_checked, full) << name;
    EXPECT_EQ(got.pairs_total, full) << name;
  }
  // The sample the candidate asks for must be the one the baseline ran.
  const auto [st, got] =
      delta({&model, &packed, stamp, &none}, kDeltaSample / 2);
  EXPECT_EQ(got.pairs_checked, got.pairs_total);
  EXPECT_EQ(st.code(), want.code());
}

TEST(PackedAgreementDiffTest, BiasFlagMismatchTakesFullCheckOnEqualBytes) {
  // The bias flag decides whether the bias bytes enter the exact score. A
  // baseline without biases holds the candidate's exact bytes, and its
  // repack (bias lanes zero) passed. Served with biases on, that repack
  // misses every bias: the full check refuses, and so must the delta,
  // although no byte differs.
  const FactorModel model = RandomModel(40, 300, 6, true, 78);
  FactorModel flagless(40, 300, 6, false);
  flagless.mutable_user_factor_data() = model.user_factor_data();
  flagless.mutable_item_factor_data() = model.item_factor_data();
  flagless.mutable_item_bias_data() = model.item_bias_data();
  const PackedSnapshot flagless_packed = PackedSnapshot::Build(flagless);
  AgreementStamp stamp;
  ASSERT_TRUE(VerifyPackedAgreement(flagless, flagless_packed, kDeltaSample,
                                    "flagless", 1, nullptr, &stamp)
                  .ok());
  const Status full = VerifyPackedAgreement(model, flagless_packed,
                                            kDeltaSample, "missing biases");
  ASSERT_FALSE(full.ok());
  const std::vector<ItemId> none;  // no byte differs
  const AgreementBaseline baseline{&flagless, &flagless_packed, stamp, &none};
  for (int threads : {1, 2, 4}) {
    AgreementStamp got;
    const Status delta =
        VerifyPackedAgreement(model, flagless_packed, kDeltaSample,
                              "missing biases", threads, &baseline, &got);
    EXPECT_EQ(delta.code(), full.code()) << threads;
    EXPECT_EQ(delta.message(), full.message()) << threads;
    EXPECT_EQ(got.pairs_checked, got.pairs_total) << threads;
  }
}

// ---- agreement through a map -------------------------------------------

// The cluster-ordered layout an index gives `cluster` (one cluster per
// item): clusters ascending, items ascending inside each, as
// IvfIndex::FinishLayout's counting sort lays them out. Returns the
// local→global map; `global_to_local` receives its inverse.
std::vector<int32_t> ClusterLayout(const std::vector<int32_t>& cluster,
                                   int32_t clusters,
                                   std::vector<int32_t>* global_to_local) {
  std::vector<int32_t> local_to_global;
  for (int32_t c = 0; c < clusters; ++c) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (cluster[i] == c) local_to_global.push_back(static_cast<int32_t>(i));
    }
  }
  global_to_local->assign(cluster.size(), 0);
  for (size_t l = 0; l < local_to_global.size(); ++l) {
    (*global_to_local)[static_cast<size_t>(local_to_global[l])] =
        static_cast<int32_t>(l);
  }
  return local_to_global;
}

TEST(PackedAgreementDiffTest, MappedCheckNamesTheBaseOrderCheckItem) {
  // A cluster-ordered repack of the model checked through its map refuses
  // a corrupted float with the message the base-order check gives for the
  // same item, at every thread count — also when the two corrupted items'
  // lanes run in the opposite order to their ids.
  const int32_t items = 3001, users = 40, clusters = 13;
  for (bool bias : {true, false}) {
    const FactorModel model = RandomModel(users, items, 7, bias, 606);
    Rng rng(607);
    std::vector<int32_t> cluster(static_cast<size_t>(items));
    for (int32_t& c : cluster) {
      c = static_cast<int32_t>(rng.Uniform(clusters));
    }
    std::vector<int32_t> g2l;
    const std::vector<int32_t> l2g = ClusterLayout(cluster, clusters, &g2l);
    const PackedSnapshot clean = PackedSnapshot::Build(model, l2g.data());
    const std::string what = bias ? "bias" : "no bias";
    for (int threads : {1, 2, 4}) {
      EXPECT_TRUE(VerifyPackedAgreement(model, clean, kDeltaSample, what,
                                        threads, nullptr, nullptr,
                                        l2g.data())
                      .ok())
          << what;
    }
    PackedSnapshot base_order = PackedSnapshot::Build(model);
    PackedSnapshot mapped = PackedSnapshot::Build(model, l2g.data());
    for (ItemId item : {2500, 100, 1777}) {
      const size_t row = 1 + static_cast<size_t>(item % 7);
      *PackedLane(&base_order, item, row) += 4.0f;
      *PackedLane(&mapped, g2l[static_cast<size_t>(item)], row) += 4.0f;
      const Status want =
          VerifyPackedAgreement(model, base_order, kDeltaSample, what);
      ASSERT_FALSE(want.ok());
      for (int threads : {1, 2, 4}) {
        const Status got =
            VerifyPackedAgreement(model, mapped, kDeltaSample, what, threads,
                                  nullptr, nullptr, l2g.data());
        EXPECT_EQ(got.code(), want.code()) << what << " item " << item;
        EXPECT_EQ(got.message(), want.message()) << what << " item " << item;
      }
    }
    // A desynced map: every lane read against another item's doubles.
    std::vector<int32_t> reversed(l2g.rbegin(), l2g.rend());
    EXPECT_EQ(VerifyPackedAgreement(model, clean, kDeltaSample, what, 2,
                                    nullptr, nullptr, reversed.data())
                  .code(),
              StatusCode::kFailedPrecondition)
        << what;
  }
}

TEST(PackedAgreementDiffTest, MappedDeltaChecksOnlyTheDirtyItemsBlocks) {
  // A rebuild moves a few items: their doubles change and some change
  // cluster, so the counting sort shifts the lane of nearly every item
  // after them. The delta against the verified baseline layout must return
  // the full check's Status and compare only the candidate blocks that
  // hold a dirty item; a corrupted clean lane must still be refused.
  const int32_t items = 4003, users = 130, clusters = 17;
  const FactorModel base_model = RandomModel(users, items, 9, true, 808);
  Rng rng(809);
  std::vector<int32_t> cluster(static_cast<size_t>(items));
  for (int32_t& c : cluster) c = static_cast<int32_t>(rng.Uniform(clusters));
  std::vector<int32_t> base_g2l;
  const std::vector<int32_t> base_l2g =
      ClusterLayout(cluster, clusters, &base_g2l);
  const PackedSnapshot base_packed =
      PackedSnapshot::Build(base_model, base_l2g.data());
  AgreementStamp base_stamp;
  ASSERT_TRUE(VerifyPackedAgreement(base_model, base_packed, kDeltaSample,
                                    "baseline", 2, nullptr, &base_stamp,
                                    base_l2g.data())
                  .ok());
  ASSERT_EQ(base_stamp.pairs_checked, base_stamp.pairs_total);

  FactorModel model = base_model;
  std::vector<int32_t> moved_cluster = cluster;
  for (ItemId i : {40, 41, 900, 2222, 3999}) {
    model.ItemFactors(i)[2] += 0.05;
    moved_cluster[static_cast<size_t>(i)] = (cluster[i] + 5) % clusters;
  }
  const std::vector<ItemId> dirty = DiffItems(model, base_model, 1).items;
  ASSERT_EQ(dirty.size(), 5u);
  std::vector<int32_t> g2l;
  const std::vector<int32_t> l2g = ClusterLayout(moved_cluster, clusters, &g2l);
  size_t shifted = 0;
  for (ItemId i = 0; i < items; ++i) {
    shifted += g2l[static_cast<size_t>(i)] != base_g2l[static_cast<size_t>(i)];
  }
  ASSERT_GT(shifted, static_cast<size_t>(items) / 4);
  std::vector<int32_t> dirty_blocks;
  for (ItemId i : dirty) {
    dirty_blocks.push_back(g2l[static_cast<size_t>(i)] / kPackedBlockItems);
  }
  std::sort(dirty_blocks.begin(), dirty_blocks.end());
  dirty_blocks.erase(std::unique(dirty_blocks.begin(), dirty_blocks.end()),
                     dirty_blocks.end());
  const AgreementBaseline baseline{&base_model, &base_packed, base_stamp,
                                   &dirty, base_g2l.data()};
  const int64_t sampled = static_cast<int64_t>(
      GateSampleUsers(users, kDeltaSample).size());

  PackedSnapshot packed = PackedSnapshot::Build(model, l2g.data());
  for (bool corrupt : {false, true}) {
    if (corrupt) {
      // A clean item's lane, far from every dirty one.
      *PackedLane(&packed, g2l[3000], 3) += 4.0f;
    }
    const Status want = VerifyPackedAgreement(
        model, packed, kDeltaSample, "candidate", 1, nullptr, nullptr,
        l2g.data());
    EXPECT_EQ(want.ok(), !corrupt) << want.message();
    for (int threads : {1, 2, 4}) {
      AgreementStamp got;
      const Status delta =
          VerifyPackedAgreement(model, packed, kDeltaSample, "candidate",
                                threads, &baseline, &got, l2g.data());
      EXPECT_EQ(delta.code(), want.code()) << threads;
      EXPECT_EQ(delta.message(), want.message()) << threads;
      const int64_t blocks = static_cast<int64_t>(dirty_blocks.size()) +
                             (corrupt ? 1 : 0);
      EXPECT_EQ(got.pairs_checked, sampled * blocks) << threads;
    }
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

// Unit tests for the packed SIMD scoring path: PackedSnapshot layout and
// repack fidelity, the portable and AVX2 kernels, the fused score+top-k
// scan, the quantized collector against the quantized block scorer, and the
// packed-vs-exact agreement verifier. Part of the `kernel`
// ctest label, which also runs under the Sanitize and Tsan presets.
#include "clapf/model/score_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/util/random.h"
#include "clapf/util/top_k.h"

namespace clapf {
namespace {

// Every test leaves kernel dispatch in its default (auto) state.
class ScoreKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearScoreKernelOverride(); }
};

FactorModel MakeRandomModel(int32_t num_users, int32_t num_items,
                            int32_t num_factors, bool use_item_bias,
                            uint64_t seed) {
  FactorModel model(num_users, num_items, num_factors, use_item_bias);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  if (use_item_bias) {
    for (ItemId i = 0; i < num_items; ++i) {
      model.ItemBias(i) = rng.NextDouble() - 0.5;
    }
  }
  return model;
}

double L1Terms(const FactorModel& model, UserId u, ItemId i) {
  auto uf = model.UserFactors(u);
  auto vf = model.ItemFactors(i);
  double l1 = model.use_item_bias() ? std::abs(model.ItemBias(i)) : 0.0;
  for (int32_t f = 0; f < model.num_factors(); ++f) {
    l1 += std::abs(uf[static_cast<size_t>(f)] * vf[static_cast<size_t>(f)]);
  }
  return l1;
}

TEST_F(ScoreKernelTest, PackedLayoutMatchesContract) {
  const auto model = MakeRandomModel(3, 10, 3, /*use_item_bias=*/true, 7);
  const PackedSnapshot snap = PackedSnapshot::Build(model);

  EXPECT_EQ(snap.num_items(), 10);
  EXPECT_EQ(snap.num_blocks(), 2);  // ceil(10 / 8)
  EXPECT_EQ(snap.block_stride(), static_cast<size_t>((3 + 1) * 8));
  EXPECT_TRUE(snap.use_item_bias());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(snap.block_data()) %
                kPackedAlignment,
            0u);

  for (ItemId i = 0; i < snap.num_items(); ++i) {
    const float* blk =
        snap.block_data() +
        static_cast<size_t>(i / kPackedBlockItems) * snap.block_stride();
    const int lane = i % kPackedBlockItems;
    EXPECT_EQ(blk[lane], static_cast<float>(model.ItemBias(i)))
        << "bias lane of item " << i;
    auto vf = model.ItemFactors(i);
    for (int32_t f = 0; f < 3; ++f) {
      EXPECT_EQ(blk[static_cast<size_t>(f + 1) * kPackedBlockItems + lane],
                static_cast<float>(vf[static_cast<size_t>(f)]))
          << "factor " << f << " of item " << i;
    }
  }
  // Tail pad lanes (items 10..15 of block 1) are zero in every strip.
  const float* tail = snap.block_data() + snap.block_stride();
  for (int lane = 10 % kPackedBlockItems; lane < kPackedBlockItems; ++lane) {
    for (int32_t strip = 0; strip < 4; ++strip) {
      EXPECT_EQ(tail[static_cast<size_t>(strip) * kPackedBlockItems + lane],
                0.0f);
    }
  }
}

TEST_F(ScoreKernelTest, BuildHandlesEmptyModel) {
  FactorModel model(0, 0, 4);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  EXPECT_EQ(snap.num_blocks(), 0);
  EXPECT_EQ(snap.num_items(), 0);
  std::vector<double> scores;
  snap.ScoreItemRange(0, 0, 0, &scores);  // no-op, no crash
}

TEST_F(ScoreKernelTest, PortableAgreesWithExactWithinBound) {
  ForceScoreKernel(ScoreKernel::kPortable);
  for (const bool bias : {true, false}) {
    const auto model = MakeRandomModel(5, 101, 20, bias, 11);
    const PackedSnapshot snap = PackedSnapshot::Build(model);
    std::vector<double> exact, approx(101);
    for (UserId u = 0; u < model.num_users(); ++u) {
      model.ScoreAllItems(u, &exact);
      snap.ScoreItemRange(u, 0, 101, &approx);
      for (ItemId i = 0; i < 101; ++i) {
        const double bound =
            PackedScoreBound(model.num_factors(), L1Terms(model, u, i));
        EXPECT_LE(std::abs(exact[static_cast<size_t>(i)] -
                           approx[static_cast<size_t>(i)]),
                  bound)
            << "user " << u << " item " << i << " bias=" << bias;
      }
    }
  }
}

TEST_F(ScoreKernelTest, Avx2AgreesWithPortable) {
  if (!ScoreKernelSupported(ScoreKernel::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  const auto model = MakeRandomModel(4, 77, 16, /*use_item_bias=*/true, 3);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  const int32_t nb = snap.num_blocks();
  std::vector<float> portable(static_cast<size_t>(nb) * kPackedBlockItems);
  std::vector<float> avx2(portable.size());
  for (UserId u = 0; u < model.num_users(); ++u) {
    ForceScoreKernel(ScoreKernel::kPortable);
    ScoreBlocks(snap, u, 0, nb, portable.data());
    ForceScoreKernel(ScoreKernel::kAvx2);
    ScoreBlocks(snap, u, 0, nb, avx2.data());
    for (size_t x = 0; x < portable.size(); ++x) {
      // FMA keeps the product unrounded, so the two kernels differ by at
      // most a few float32 ulps of the accumulated magnitude.
      EXPECT_NEAR(portable[x], avx2[x], 1e-4f) << "lane " << x;
    }
  }
}

TEST_F(ScoreKernelTest, Avx2AgreesWithExactWithinBound) {
  if (!ScoreKernelSupported(ScoreKernel::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA";
  }
  ForceScoreKernel(ScoreKernel::kAvx2);
  const auto model = MakeRandomModel(6, 130, 64, /*use_item_bias=*/true, 5);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  std::vector<double> exact, approx(130);
  for (UserId u = 0; u < model.num_users(); ++u) {
    model.ScoreAllItems(u, &exact);
    snap.ScoreItemRange(u, 0, 130, &approx);
    for (ItemId i = 0; i < 130; ++i) {
      EXPECT_LE(std::abs(exact[static_cast<size_t>(i)] -
                         approx[static_cast<size_t>(i)]),
                PackedScoreBound(64, L1Terms(model, u, i)))
          << "user " << u << " item " << i;
    }
  }
}

TEST_F(ScoreKernelTest, ScoreItemRangeHandlesUnalignedBounds) {
  const auto model = MakeRandomModel(2, 50, 8, /*use_item_bias=*/true, 13);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  std::vector<double> full(50), part(50, -1000.0);
  snap.ScoreItemRange(0, 0, 50, &full);
  snap.ScoreItemRange(0, 3, 13, &part);  // straddles a block boundary
  for (ItemId i = 3; i < 13; ++i) {
    EXPECT_EQ(part[static_cast<size_t>(i)], full[static_cast<size_t>(i)]);
  }
  // Outside the range is untouched.
  EXPECT_EQ(part[2], -1000.0);
  EXPECT_EQ(part[13], -1000.0);
}

TEST_F(ScoreKernelTest, FusedTopKMatchesScoreThenSelect) {
  const auto model = MakeRandomModel(3, 203, 16, /*use_item_bias=*/true, 17);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  std::vector<bool> excluded(203, false);
  Rng rng(99);
  for (ItemId i = 0; i < 203; ++i) excluded[i] = rng.NextDouble() < 0.3;

  for (UserId u = 0; u < model.num_users(); ++u) {
    std::vector<double> scores(203);
    snap.ScoreItemRange(u, 0, 203, &scores);
    const auto want = SelectTopK(scores, excluded, 10);

    TopKAccumulator acc(10);
    // Feed in two chunks to exercise the block-aligned begin contract.
    ScoreBlocksTopK(snap, u, 0, 128, &excluded, &acc);
    ScoreBlocksTopK(snap, u, 128, 203, &excluded, &acc);
    const auto got = acc.Take();

    ASSERT_EQ(got.size(), want.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_EQ(got[x].item, want[x].item) << "rank " << x;
      EXPECT_EQ(got[x].score, want[x].score) << "rank " << x;
    }
  }
}

TEST_F(ScoreKernelTest, FusedTopKPreservesTieBreakOnEqualScores) {
  // All items share identical factors (and zero bias), so every packed score
  // is bit-identical: the early-reject must not starve the tie-break, and
  // the k smallest ids must win.
  FactorModel model(1, 40, 4, /*use_item_bias=*/false);
  for (int32_t f = 0; f < 4; ++f) model.UserFactors(0)[f] = 0.5;
  for (ItemId i = 0; i < 40; ++i) {
    for (int32_t f = 0; f < 4; ++f) model.ItemFactors(i)[f] = 0.25;
  }
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  TopKAccumulator acc(5);
  ScoreBlocksTopK(snap, 0, 0, 40, nullptr, &acc);
  const auto got = acc.Take();
  ASSERT_EQ(got.size(), 5u);
  for (int32_t x = 0; x < 5; ++x) EXPECT_EQ(got[static_cast<size_t>(x)].item, x);
}

TEST_F(ScoreKernelTest, FusedTopKNullExcludedMeansNoExclusion) {
  const auto model = MakeRandomModel(1, 30, 8, /*use_item_bias=*/true, 23);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  std::vector<double> scores(30);
  snap.ScoreItemRange(0, 0, 30, &scores);
  TopKAccumulator acc(3);
  ScoreBlocksTopK(snap, 0, 0, 30, nullptr, &acc);
  const auto got = acc.Take();
  const auto want = SelectTopK(scores, {}, 3);
  ASSERT_EQ(got.size(), 3u);
  for (size_t x = 0; x < 3; ++x) EXPECT_EQ(got[x].item, want[x].item);
}

// The quantized first pass prunes with block bounds checked against
// PqScoreBlocks (PqCodecTest.BlockBoundsDominateEveryItemScore...) but
// filters with PqScoreCollect, a separately written loop: this ties the
// two. At bar = -inf the collector must emit every real item of the range
// once, in ascending local order, with PqScoreBlocks's score bit for bit
// (-0.0 read as +0.0), and at a finite bar exactly the items scoring at or
// above it. Random codes, pad lanes included, so a tail block's pads would
// show if emitted; both signs of lane weight; odd and even d; odd and even
// block counts (the AVX2 loop pairs blocks).
TEST_F(ScoreKernelTest, PqCollectMatchesPqScoreBlocksUnderEitherKernel) {
  const auto normalized_bits = [](float s) {
    return std::bit_cast<uint32_t>(s == 0.0f ? 0.0f : s);
  };
  Rng rng(41);
  for (const ScoreKernel kernel :
       {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
    if (!ScoreKernelSupported(kernel)) continue;
    ForceScoreKernel(kernel);
    for (const int32_t d : {7, 8, 13}) {
      for (const ItemId n : {3, 8, 61, 70}) {
        SCOPED_TRACE(std::string("kernel ") + ScoreKernelName(kernel) +
                     " d " + std::to_string(d) + " n " + std::to_string(n));
        const int32_t lanes = d + 1;
        const int32_t blocks = (n + kPackedBlockItems - 1) / kPackedBlockItems;
        const std::size_t stride =
            static_cast<std::size_t>(lanes) * kPackedBlockItems;
        std::vector<int8_t> codes(stride * static_cast<std::size_t>(blocks));
        for (int8_t& c : codes) {
          c = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
        }
        std::vector<float> weights(static_cast<size_t>(lanes));
        for (float& w : weights) {
          w = static_cast<float>(rng.NextGaussian() * 0.01);
        }
        const float base = static_cast<float>(rng.NextGaussian());
        std::vector<float> scores(static_cast<size_t>(blocks) *
                                  kPackedBlockItems);
        PqScoreBlocks(codes.data(), stride, d, weights.data(), base, 0, blocks,
                      scores.data());

        for (const ItemId begin : {0, 16}) {
          if (begin >= n) continue;
          std::vector<uint64_t> keys;
          PqScoreCollect(codes.data(), stride, d, weights.data(), base, begin,
                         n, -std::numeric_limits<float>::infinity(), &keys);
          ASSERT_EQ(keys.size(), static_cast<size_t>(n - begin));
          for (size_t x = 0; x < keys.size(); ++x) {
            const ItemId want = begin + static_cast<ItemId>(x);
            ASSERT_EQ(PqCandidateLocal(keys[x]), want) << "slot " << x;
            EXPECT_EQ(std::bit_cast<uint32_t>(PqCandidateScore(keys[x])),
                      normalized_bits(scores[static_cast<size_t>(want)]))
                << "item " << want;
          }

          // A finite bar keeps exactly the items at or above it.
          const float bar = scores[static_cast<size_t>((begin + n) / 2)];
          keys.clear();
          PqScoreCollect(codes.data(), stride, d, weights.data(), base, begin,
                         n, bar, &keys);
          std::vector<ItemId> want_kept;
          for (ItemId i = begin; i < n; ++i) {
            if (scores[static_cast<size_t>(i)] >= bar) want_kept.push_back(i);
          }
          ASSERT_EQ(keys.size(), want_kept.size());
          for (size_t x = 0; x < keys.size(); ++x) {
            EXPECT_EQ(PqCandidateLocal(keys[x]), want_kept[x]) << "slot " << x;
          }
        }
      }
    }
  }
}

TEST_F(ScoreKernelTest, DispatchOverrideRoundTrips) {
  ForceScoreKernel(ScoreKernel::kPortable);
  EXPECT_EQ(ActiveScoreKernel(), ScoreKernel::kPortable);
  EXPECT_STREQ(ScoreKernelName(ActiveScoreKernel()), "portable");
  if (ScoreKernelSupported(ScoreKernel::kAvx2)) {
    ForceScoreKernel(ScoreKernel::kAvx2);
    EXPECT_EQ(ActiveScoreKernel(), ScoreKernel::kAvx2);
    EXPECT_STREQ(ScoreKernelName(ActiveScoreKernel()), "avx2");
  }
  ClearScoreKernelOverride();
  // Auto dispatch lands on a supported kernel.
  EXPECT_TRUE(ScoreKernelSupported(ActiveScoreKernel()));
}

TEST_F(ScoreKernelTest, VerifyPackedAgreementAcceptsFaithfulRepack) {
  const auto model = MakeRandomModel(9, 64, 12, /*use_item_bias=*/true, 29);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  EXPECT_TRUE(VerifyPackedAgreement(model, snap, 9, "test").ok());
}

TEST_F(ScoreKernelTest, VerifyPackedAgreementCatchesCorruption) {
  const auto model = MakeRandomModel(9, 64, 12, /*use_item_bias=*/true, 31);
  PackedSnapshot snap = PackedSnapshot::Build(model);
  // Flip one factor lane far outside any rounding bound.
  snap.mutable_block_data()[kPackedBlockItems + 2] += 100.0f;
  const Status got = VerifyPackedAgreement(model, snap, 9, "drill");
  EXPECT_EQ(got.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.message().find("drill"), std::string::npos);
}

TEST_F(ScoreKernelTest, VerifyPackedAgreementRejectsDimensionMismatch) {
  const auto model = MakeRandomModel(4, 32, 8, /*use_item_bias=*/true, 37);
  const auto other = MakeRandomModel(4, 40, 8, /*use_item_bias=*/true, 37);
  const PackedSnapshot snap = PackedSnapshot::Build(other);
  EXPECT_EQ(VerifyPackedAgreement(model, snap, 4, "test").code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace clapf

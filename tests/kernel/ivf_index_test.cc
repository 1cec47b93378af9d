// ANN-vs-exact agreement drills for the IVF retrieval layer: shortlist +
// re-rank must equal the exact fused scan bit-for-bit (ids, order, and the
// smaller-id tie-break) when every cluster is probed, clear the measured
// recall contract at the default probe width, build deterministically across
// rebuilds and thread counts, and survive the degenerate catalog shapes
// (k > shortlist, empty clusters, one cluster, catalog < nclusters, nprobe
// clamping). Part of the `ann` ctest label.
#include "clapf/model/ivf_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/score_kernel.h"
#include "clapf/model/retrieval.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/random.h"
#include "clapf/util/top_k.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

// Every test leaves kernel dispatch in its default (auto) state and the
// fault registry disarmed.
class IvfIndexTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ClearScoreKernelOverride();
    FaultInjector::Instance().Reset();
  }
};

FactorModel MakeRandomModel(int32_t num_users, int32_t num_items,
                            int32_t num_factors, uint64_t seed) {
  FactorModel model(num_users, num_items, num_factors);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  for (ItemId i = 0; i < num_items; ++i) {
    model.ItemBias(i) = rng.NextDouble() - 0.5;
  }
  return model;
}

// A model drowning in exact score ties: factors are quantized to a handful
// of values, so whole runs of items share one score and the ranking is
// decided by the smaller-id tie-break alone.
FactorModel MakeTieHeavyModel(int32_t num_users, int32_t num_items,
                              int32_t num_factors, uint64_t seed) {
  FactorModel model(num_users, num_items, num_factors);
  Rng rng(seed);
  for (UserId u = 0; u < num_users; ++u) {
    auto uf = model.UserFactors(u);
    for (int32_t f = 0; f < num_factors; ++f) {
      uf[static_cast<size_t>(f)] = 1.0;
    }
  }
  for (ItemId i = 0; i < num_items; ++i) {
    auto vf = model.ItemFactors(i);
    for (int32_t f = 0; f < num_factors; ++f) {
      vf[static_cast<size_t>(f)] =
          std::floor(rng.NextDouble() * 3.0);  // 0, 1, or 2
    }
    model.ItemBias(i) = std::floor(rng.NextDouble() * 2.0);  // 0 or 1
  }
  return model;
}

// Exact fused full-scan top-k over the base-order snapshot: the ground
// truth every ANN result is held against.
std::vector<ScoredItem> ExactTopK(const PackedSnapshot& snap, UserId u,
                                  size_t k) {
  TopKAccumulator acc(k);
  ScoreBlocksTopK(snap, u, 0, snap.num_items(), nullptr, &acc);
  return acc.Take();
}

// ANN top-k through the index's own probe + mapped re-rank machinery, the
// same call sequence the serving path runs.
std::vector<ScoredItem> AnnTopK(const IvfIndex& index, UserId u, size_t k,
                                int32_t nprobe) {
  std::vector<IvfProbeRange> probes;
  index.SelectProbes(u, nprobe, k, &probes, nullptr);
  TopKAccumulator acc(k);
  for (const IvfProbeRange& range : probes) {
    ScoreBlocksTopKMapped(index.packed(), u, range.begin, range.end,
                          index.local_to_global_data(), nullptr, &acc);
  }
  return acc.Take();
}

TEST_F(IvfIndexTest, FullProbeEqualsExactScanAcrossDimsAndKernels) {
  // nprobe = num_clusters degenerates to the exact scan: the shortlist is a
  // permutation of the whole catalog and per-lane packed scores are
  // bit-identical regardless of block position, so ids, order, AND scores
  // must match the base-order fused scan exactly — on both kernels and for
  // a narrow and a wide factor dimension.
  for (int32_t d : {16, 64}) {
    const auto model = MakeRandomModel(12, 500, d, 1000 + d);
    const PackedSnapshot exact = PackedSnapshot::Build(model);
    IvfOptions opts;
    opts.num_clusters = 20;
    const IvfIndex index = IvfIndex::Build(model, opts);
    ASSERT_TRUE(index.VerifyStructure("test").ok());

    for (ScoreKernel kernel : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
      if (!ScoreKernelSupported(kernel)) continue;
      ForceScoreKernel(kernel);
      for (UserId u = 0; u < 12; ++u) {
        const auto want = ExactTopK(exact, u, 10);
        const auto got = AnnTopK(index, u, 10, index.num_clusters());
        ASSERT_EQ(want.size(), got.size()) << "d=" << d << " user " << u;
        for (size_t x = 0; x < want.size(); ++x) {
          EXPECT_EQ(want[x].item, got[x].item)
              << "d=" << d << " kernel " << ScoreKernelName(kernel)
              << " user " << u << " rank " << x;
          EXPECT_EQ(want[x].score, got[x].score)
              << "d=" << d << " user " << u << " rank " << x;
        }
      }
    }
  }
}

TEST_F(IvfIndexTest, FullProbeHonorsSmallerIdTieBreakOnTieHeavyModel) {
  const auto model = MakeTieHeavyModel(8, 300, 4, 7);
  const PackedSnapshot exact = PackedSnapshot::Build(model);
  IvfOptions opts;
  opts.num_clusters = 12;
  const IvfIndex index = IvfIndex::Build(model, opts);

  for (ScoreKernel kernel : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
    if (!ScoreKernelSupported(kernel)) continue;
    ForceScoreKernel(kernel);
    for (UserId u = 0; u < 8; ++u) {
      const auto want = ExactTopK(exact, u, 25);
      const auto got = AnnTopK(index, u, 25, index.num_clusters());
      ASSERT_EQ(want.size(), got.size());
      for (size_t x = 0; x < want.size(); ++x) {
        // The permuted scan pushes GLOBAL ids, so equal scores must still
        // resolve to the smaller global id, exactly like the base scan.
        EXPECT_EQ(want[x].item, got[x].item)
            << "kernel " << ScoreKernelName(kernel) << " user " << u
            << " rank " << x;
        EXPECT_EQ(want[x].score, got[x].score);
      }
    }
  }
}

TEST_F(IvfIndexTest, MeasuredRecallClearsContractAtDefaultNprobe) {
  // The serving contract: recall@{1,10,50} >= 0.95 at the index's default
  // probe width, for a narrow and a wide factor dimension. Deterministic
  // seeds, so this is a regression gate rather than a flaky sample.
  // Isotropic random items are IVF's adversarial worst case (top-k spreads
  // over every direction); the contract is stated — and measured — on a
  // catalog with directional structure, like real catalogs have.
  for (int32_t d : {16, 64}) {
    const auto model =
        testing::MakeClusteredItemModel(32, 2000, d, /*num_centers=*/16,
                                        /*noise=*/0.05, 42 + d);
    const PackedSnapshot exact = PackedSnapshot::Build(model);
    IvfOptions opts;
    opts.num_clusters = 16;
    opts.default_nprobe = 8;
    const IvfIndex index = IvfIndex::Build(model, opts);
    for (size_t k : {size_t{1}, size_t{10}, size_t{50}}) {
      const double recall =
          MeasureIvfRecall(exact, index, /*sample_users=*/32, k,
                           /*nprobe=*/0);
      EXPECT_GE(recall, 0.95) << "d=" << d << " k=" << k;
    }
    EXPECT_TRUE(VerifyAnnRecall(exact, index, 32, 10, 0, 0, 0.95, "test").ok());
  }
}

TEST_F(IvfIndexTest, BuildIsBitIdenticalAcrossRebuildsAndThreadCounts) {
  const auto model = MakeRandomModel(6, 700, 12, 77);
  IvfOptions base;
  base.num_clusters = 24;

  IvfOptions threaded = base;
  threaded.build_threads = 4;
  const IvfIndex a = IvfIndex::Build(model, base);
  const IvfIndex b = IvfIndex::Build(model, base);      // same-thread rebuild
  const IvfIndex c = IvfIndex::Build(model, threaded);  // 4-way build

  for (const IvfIndex* other : {&b, &c}) {
    ASSERT_EQ(a.num_clusters(), other->num_clusters());
    for (ItemId i = 0; i < a.num_items(); ++i) {
      ASSERT_EQ(a.ClusterOf(i), other->ClusterOf(i)) << "item " << i;
      ASSERT_EQ(a.ToGlobal(i), other->ToGlobal(i)) << "local " << i;
    }
    // The cluster-ordered repack must match to the byte: same permutation,
    // same float lanes, same pad lanes.
    ASSERT_EQ(a.packed().num_blocks(), other->packed().num_blocks());
    EXPECT_EQ(std::memcmp(a.packed().block_data(),
                          other->packed().block_data(),
                          static_cast<size_t>(a.packed().num_blocks()) *
                              a.packed().block_stride() * sizeof(float)),
              0);
  }
}

TEST_F(IvfIndexTest, CatalogSmallerThanRequestedClustersClamps) {
  const auto model = MakeRandomModel(4, 5, 8, 11);
  IvfOptions opts;
  opts.num_clusters = 64;  // > catalog: must clamp to 5
  const IvfIndex index = IvfIndex::Build(model, opts);
  EXPECT_EQ(index.num_clusters(), 5);
  EXPECT_TRUE(index.VerifyStructure("test").ok());

  const PackedSnapshot exact = PackedSnapshot::Build(model);
  for (UserId u = 0; u < 4; ++u) {
    const auto want = ExactTopK(exact, u, 5);
    const auto got = AnnTopK(index, u, 5, index.num_clusters());
    ASSERT_EQ(want.size(), got.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_EQ(want[x].item, got[x].item);
    }
  }
}

TEST_F(IvfIndexTest, SingleClusterCatalogIsAlwaysExact) {
  const auto model = MakeRandomModel(4, 100, 8, 13);
  IvfOptions opts;
  opts.num_clusters = 1;
  const IvfIndex index = IvfIndex::Build(model, opts);
  EXPECT_EQ(index.num_clusters(), 1);

  const PackedSnapshot exact = PackedSnapshot::Build(model);
  for (UserId u = 0; u < 4; ++u) {
    const auto want = ExactTopK(exact, u, 10);
    const auto got = AnnTopK(index, u, 10, /*nprobe=*/1);
    ASSERT_EQ(want.size(), got.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_EQ(want[x].item, got[x].item);
      EXPECT_EQ(want[x].score, got[x].score);
    }
  }
}

TEST_F(IvfIndexTest, EmptyClustersAreSkippedAndHarmless) {
  // Three distinct item points but 8 requested clusters: at least five
  // clusters end up empty. Probe selection must skip them and full-probe
  // agreement must still hold.
  FactorModel model(3, 48, 4);
  Rng rng(19);
  for (UserId u = 0; u < 3; ++u) {
    auto uf = model.UserFactors(u);
    for (int32_t f = 0; f < 4; ++f) {
      uf[static_cast<size_t>(f)] = rng.NextDouble() - 0.5;
    }
  }
  for (ItemId i = 0; i < 48; ++i) {
    auto vf = model.ItemFactors(i);
    for (int32_t f = 0; f < 4; ++f) {
      vf[static_cast<size_t>(f)] = (i % 3 == f % 3) ? 1.0 : -1.0;
    }
    model.ItemBias(i) = static_cast<double>(i % 3);
  }
  IvfOptions opts;
  opts.num_clusters = 8;
  const IvfIndex index = IvfIndex::Build(model, opts);
  EXPECT_TRUE(index.VerifyStructure("test").ok());

  const PackedSnapshot exact = PackedSnapshot::Build(model);
  for (UserId u = 0; u < 3; ++u) {
    const auto want = ExactTopK(exact, u, 12);
    const auto got = AnnTopK(index, u, 12, index.num_clusters());
    ASSERT_EQ(want.size(), got.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_EQ(want[x].item, got[x].item);
    }
  }
}

TEST_F(IvfIndexTest, NprobeIsClampedAtBothEnds) {
  const auto model = MakeRandomModel(2, 200, 8, 23);
  IvfOptions opts;
  opts.num_clusters = 10;
  const IvfIndex index = IvfIndex::Build(model, opts);

  std::vector<IvfProbeRange> probes;
  int32_t used = 0;
  // Oversized nprobe clamps to num_clusters: the whole catalog is covered.
  index.SelectProbes(0, 1 << 20, /*min_items=*/1, &probes, &used);
  EXPECT_EQ(used, index.num_clusters());
  EXPECT_EQ(IvfIndex::CoveredItems(probes), 200u);
  // Zero/negative fall back to the index default.
  index.SelectProbes(0, 0, 1, &probes, &used);
  EXPECT_EQ(used, index.default_nprobe());
  index.SelectProbes(0, -3, 1, &probes, &used);
  EXPECT_EQ(used, index.default_nprobe());
}

TEST_F(IvfIndexTest, MinItemsWidensProbesUntilKIsServable) {
  // k larger than any single cluster: SelectProbes must widen past nprobe=1
  // until the shortlist can fill k slots.
  const auto model = MakeRandomModel(2, 400, 8, 29);
  IvfOptions opts;
  opts.num_clusters = 16;
  const IvfIndex index = IvfIndex::Build(model, opts);

  std::vector<IvfProbeRange> probes;
  int32_t used = 0;
  index.SelectProbes(0, /*nprobe=*/1, /*min_items=*/300, &probes, &used);
  EXPECT_GT(used, 1);
  EXPECT_GE(IvfIndex::CoveredItems(probes), 300u);
}

TEST_F(IvfIndexTest, RebuildDirtyReassignsOnlyChangedItems) {
  auto model = MakeRandomModel(4, 600, 8, 31);
  IvfOptions opts;
  opts.num_clusters = 20;
  const IvfIndex first = IvfIndex::Build(model, opts);

  // No parameter change: a no-op rebuild, bit-identical to its seed.
  int64_t reassigned = -1;
  auto same = IvfIndex::RebuildDirty(first, model, opts, &reassigned);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(reassigned, 0);
  for (ItemId i = 0; i < 600; ++i) {
    EXPECT_EQ(first.ClusterOf(i), same->ClusterOf(i));
    EXPECT_EQ(first.ToGlobal(i), same->ToGlobal(i));
  }

  // Perturb 3 items: exactly those go back through assignment, and the
  // result still binds to the new model.
  for (ItemId i : {ItemId{5}, ItemId{250}, ItemId{599}}) {
    model.ItemFactors(i)[0] += 2.0;
  }
  auto dirty = IvfIndex::RebuildDirty(first, model, opts, &reassigned);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(reassigned, 3);
  const IvfIndex fresh = IvfIndex::Build(model, opts);
  EXPECT_EQ(dirty->item_crcs(), fresh.item_crcs());
  EXPECT_TRUE(dirty->VerifyStructure("test").ok());
  // The stale seed no longer binds: its CRCs disagree on the moved items.
  for (ItemId i : {ItemId{5}, ItemId{250}, ItemId{599}}) {
    EXPECT_NE(first.item_crcs()[static_cast<size_t>(i)],
              fresh.item_crcs()[static_cast<size_t>(i)]);
  }

  // Incompatible options refuse instead of silently rebuilding.
  IvfOptions other = opts;
  other.seed = 999;
  EXPECT_EQ(IvfIndex::RebuildDirty(first, model, other, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IvfIndexTest, DesyncedIndexPassesStructureButFailsRecallGate) {
  // The canonical corruption: assignments desynced from V while still a
  // bijection. Structure alone cannot see it; the measured recall gate
  // against the independent base-order ground truth must.
  const auto model = testing::MakeClusteredItemModel(
      16, 800, 16, /*num_centers=*/16, /*noise=*/0.05, 37);
  const PackedSnapshot exact = PackedSnapshot::Build(model);
  IvfOptions opts;
  opts.num_clusters = 16;
  opts.default_nprobe = 8;
  IvfIndex index = IvfIndex::Build(model, opts);
  ASSERT_TRUE(VerifyAnnRecall(exact, index, 16, 10, 0, 0, 0.95, "test").ok());

  index.DesyncForTesting();
  EXPECT_TRUE(index.VerifyStructure("test").ok());  // still a bijection
  const Status gate = VerifyAnnRecall(exact, index, 16, 10, 0, 0, 0.95, "test");
  EXPECT_EQ(gate.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(gate.message().find("recall"), std::string::npos);
}

TEST_F(IvfIndexTest, AnnQueryRespectsExcludeMinScoreAndHistory) {
  const auto history = testing::MakeLearnableDataset(10, 300, 6, 41);
  const FactorModel model = MakeRandomModel(10, 300, 16, 41);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  IvfGateOptions gate;
  gate.ivf.num_clusters = 12;
  gate.recall_floor = 0.5;
  gate.recall_users = 10;
  auto index = BuildGatedIvf(model, gate, nullptr, "test", nullptr);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const RetrievalLayers layers{&model, &packed, index->get()};

  QueryOptions ann;
  ann.ann = true;
  ann.ann_nprobe = 12;  // full probe: ANN ranking == exact ranking
  ann.exclude = {0, 1, 2, 3, 4, 5, 6, 7};
  auto got = testing::RetrieveTopK(layers, history, 0, 50, ann);
  ASSERT_TRUE(got.ok());
  for (const ScoredItem& item : *got) {
    EXPECT_GT(item.item, 7) << "excluded item served through ANN";
    EXPECT_FALSE(history.IsObserved(0, item.item))
        << "history item served through ANN";
  }

  // min_score keeps the surviving prefix of the same ANN ranking.
  QueryOptions floored = ann;
  floored.min_score = (*got)[got->size() / 2].score;
  auto filtered = testing::RetrieveTopK(layers, history, 0, 50, floored);
  ASSERT_TRUE(filtered.ok());
  ASSERT_LE(filtered->size(), got->size());
  for (size_t x = 0; x < filtered->size(); ++x) {
    EXPECT_EQ((*filtered)[x].item, (*got)[x].item) << "rank " << x;
    EXPECT_GE((*filtered)[x].score, *floored.min_score);
  }
}

TEST_F(IvfIndexTest, KBeyondShortlistStillFillsFromWidenedProbes) {
  // k = whole catalog with nprobe=1: the widening guarantee must deliver
  // every servable item, matching the exact path's result count and order.
  const auto history = testing::MakeLearnableDataset(6, 120, 5, 43);
  const FactorModel model = MakeRandomModel(6, 120, 8, 43);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  IvfOptions opts;
  opts.num_clusters = 10;
  const IvfIndex index = IvfIndex::Build(model, opts);
  const RetrievalLayers layers{&model, &packed, &index};

  QueryOptions exact_opts;  // packed full scan
  QueryOptions ann;
  ann.ann = true;
  ann.ann_nprobe = 1;
  for (UserId u = 0; u < 6; ++u) {
    auto want = testing::RetrieveTopK(layers, history, u, 120, exact_opts);
    auto got = testing::RetrieveTopK(layers, history, u, 120, ann);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    // Widening covers the entire catalog, so even "nprobe=1" is exact here.
    ASSERT_EQ(want->size(), got->size());
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item) << "user " << u;
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
    }
  }
}

TEST_F(IvfIndexTest, DeadlineExpiryUnderAnnReturnsDeadlineExceeded) {
  const auto history = testing::MakeLearnableDataset(4, 3000, 5, 47);
  const FactorModel model = MakeRandomModel(4, 3000, 8, 47);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  const IvfIndex index = IvfIndex::Build(model, {});

  // Every ANN chunk stalls 2ms; a 1ms budget must expire mid-shortlist.
  FaultInjector::Instance().Arm(FaultPoint::kServeSlowBlock,
                                {/*trigger_at_hit=*/1, /*max_fires=*/-1});
  QueryOptions ann;
  ann.ann = true;
  ann.deadline = std::chrono::microseconds(1000);
  auto got =
      testing::RetrieveTopK({&model, &packed, &index}, history, 0, 10, ann);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("ann"), std::string::npos);
}

TEST_F(IvfIndexTest, BatchPartialPrefixUnderAnnMatchesUnboundedAnswers) {
  // A deadline that expires mid-batch hands back the completed prefix; every
  // completed user's list must equal the unbounded ANN answer — a correct
  // prefix of the ANN ranking, never a half-scored one.
  const auto history = testing::MakeLearnableDataset(16, 2000, 5, 53);
  ServerOptions options;
  options.num_threads = 1;
  options.ann = true;
  options.canary.ann_recall_floor = 0;  // random isotropic catalog
  ModelServer server(history, options);
  ASSERT_TRUE(server.PublishModel(MakeRandomModel(16, 2000, 8, 53)).ok());

  std::vector<UserId> users(16);
  for (UserId u = 0; u < 16; ++u) users[static_cast<size_t>(u)] = u;
  QueryOptions ann;
  ann.ann = true;
  auto unbounded = server.RecommendBatch(users, 10, ann);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_EQ(unbounded->num_complete, users.size());

  FaultInjector::Instance().Arm(FaultPoint::kServeSlowBlock,
                                {/*trigger_at_hit=*/1, /*max_fires=*/-1});
  QueryOptions bounded = ann;
  bounded.deadline = std::chrono::microseconds(4000);
  auto partial = server.RecommendBatch(users, 10, bounded);
  ASSERT_TRUE(partial.ok());
  for (size_t i = 0; i < users.size(); ++i) {
    if (!partial->complete[i]) {
      EXPECT_TRUE(partial->results[i].empty());
      continue;
    }
    ASSERT_EQ(partial->results[i].size(), unbounded->results[i].size());
    for (size_t x = 0; x < partial->results[i].size(); ++x) {
      EXPECT_EQ(partial->results[i][x].item, unbounded->results[i][x].item);
      EXPECT_EQ(partial->results[i][x].score,
                unbounded->results[i][x].score);
    }
  }
}

// FNV-1a, 64-bit, continued from `h` over `bytes` bytes at `p`.
uint64_t Fnv1a(uint64_t h, const void* p, size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t x = 0; x < bytes; ++x) {
    h ^= b[x];
    h *= 0x100000001b3ull;
  }
  return h;
}

// One hash of everything a build decides: each item's cluster, the
// cluster-ordered permutation, the repacked float lanes, and (with pq on)
// the code book and every code byte.
uint64_t IndexHash(const IvfIndex& index) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (ItemId i = 0; i < index.num_items(); ++i) {
    const int32_t cluster = index.ClusterOf(i);
    const int32_t global = index.ToGlobal(i);
    h = Fnv1a(h, &cluster, sizeof(cluster));
    h = Fnv1a(h, &global, sizeof(global));
  }
  const PackedSnapshot& packed = index.packed();
  h = Fnv1a(h, packed.block_data(),
            static_cast<size_t>(packed.num_blocks()) * packed.block_stride() *
                sizeof(float));
  if (index.has_pq()) {
    const PqCodes& pq = index.pq_codes();
    h = Fnv1a(h, pq.book().scale.data(),
              pq.book().scale.size() * sizeof(float));
    h = Fnv1a(h, pq.book().offset.data(),
              pq.book().offset.size() * sizeof(float));
    h = Fnv1a(h, pq.block_codes(),
              static_cast<size_t>(pq.num_blocks()) * pq.block_stride());
  }
  return h;
}

TEST_F(IvfIndexTest, BuildMatchesTheScalarAssignmentGoldens) {
  // Hashes recorded from the build whose every assignment ran the scalar
  // one-centroid-at-a-time argmin. The blocked assignment kernel must
  // reproduce them bit for bit on both kernels: the same clusters, the same
  // permutation and repack, and the same code book and codes.
  const auto clustered = testing::MakeClusteredItemModel(
      8, 20000, 32, /*num_centers=*/16, /*noise=*/0.05, 2023);
  IvfOptions opts;  // default clusters: ceil(sqrt(20000)) = 142
  opts.pq = true;
  opts.build_threads = 4;
  const auto ties = MakeTieHeavyModel(4, 900, 4, 2024);
  IvfOptions tie_opts;
  tie_opts.num_clusters = 9;
  tie_opts.pq = true;
  // 1% of the clustered catalog moves: 200 items go through RebuildDirty.
  FactorModel moved = clustered;
  for (ItemId i = 0; i < moved.num_items(); i += 100) {
    moved.ItemFactors(i)[static_cast<size_t>(i % 32)] += 0.75;
    moved.ItemBias(i) -= 0.25;
  }

  for (ScoreKernel kernel : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
    if (!ScoreKernelSupported(kernel)) continue;
    ForceScoreKernel(kernel);
    SCOPED_TRACE(ScoreKernelName(kernel));
    const IvfIndex index = IvfIndex::Build(clustered, opts);
    EXPECT_EQ(index.num_clusters(), 142);
    EXPECT_EQ(IndexHash(index), 0x3eff5f50b488a444ull);
    EXPECT_EQ(IndexHash(IvfIndex::Build(ties, tie_opts)),
              0xe328f293ce9fb521ull);
    int64_t reassigned = 0;
    auto rebuilt = IvfIndex::RebuildDirty(index, moved, opts, &reassigned);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(reassigned, 200);
    EXPECT_EQ(IndexHash(*rebuilt), 0xce2d92ece175fae2ull);
  }
}

// A candidate whose items [0, base.num_items()) differ from `base` in the
// ways a publish sees — a factor one ulp away, a changed bias, a zero whose
// sign flipped — on about `fraction` of them, and whose catalog grows by
// `grow` items.
FactorModel DriftedCandidate(const FactorModel& base, double fraction,
                             int32_t grow, uint64_t seed) {
  FactorModel cand = base;
  Rng rng(seed);
  for (ItemId i = 0; i < cand.num_items(); ++i) {
    if (rng.NextDouble() >= fraction) continue;
    switch (i % 3) {
      case 0: {
        double& x = cand.ItemFactors(i)[static_cast<size_t>(i) %
                                        static_cast<size_t>(
                                            cand.num_factors())];
        x = std::nextafter(x, 1e9);
        break;
      }
      case 1:
        cand.ItemBias(i) += 0.125;
        break;
      default:
        cand.ItemBias(i) = std::signbit(cand.ItemBias(i)) ? 0.0 : -0.0;
        break;
    }
  }
  if (grow > 0) {
    Rng grow_rng(seed + 1);
    cand.ExpandTo(cand.num_users(), cand.num_items() + grow, grow_rng, 0.5);
  }
  return cand;
}

TEST_F(IvfIndexTest, DiffItemsIsTheSetOfItemsWhoseBytesDiffer) {
  const FactorModel base = testing::MakeClusteredItemModel(
      6, 3001, 8, /*num_centers=*/8, /*noise=*/0.05, 91);
  for (int threads : {1, 2, 4}) {
    for (double fraction : {0.0, 0.001, 0.05, 0.6, 1.0}) {
      for (int32_t grow : {0, 13}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " fraction " +
                     std::to_string(fraction) + " grow " +
                     std::to_string(grow));
        const FactorModel cand = DriftedCandidate(base, fraction, grow, 92);
        const ItemDelta delta = DiffItems(cand, base, threads);
        std::vector<ItemId> want;
        for (ItemId i = 0; i < cand.num_items(); ++i) {
          if (i >= base.num_items() ||
              std::memcmp(cand.ItemFactors(i).data(),
                          base.ItemFactors(i).data(),
                          8 * sizeof(double)) != 0 ||
              std::memcmp(&cand.item_bias_data()[static_cast<size_t>(i)],
                          &base.item_bias_data()[static_cast<size_t>(i)],
                          sizeof(double)) != 0) {
            want.push_back(i);
          }
        }
        EXPECT_EQ(delta.items, want);
        // Each dirty item carries the CRC a full build binds it with.
        const IvfIndex fresh = IvfIndex::Build(cand, IvfOptions{});
        ASSERT_EQ(delta.crcs.size(), delta.items.size());
        for (size_t x = 0; x < delta.items.size(); ++x) {
          EXPECT_EQ(delta.crcs[x],
                    fresh.item_crcs()[static_cast<size_t>(delta.items[x])])
              << "item " << delta.items[x];
        }
      }
    }
  }

  // Without item biases the bias bytes are not parameters: only factor
  // changes make an item dirty.
  FactorModel flat(2, 40, 4, /*use_item_bias=*/false);
  FactorModel moved = flat;
  moved.ItemBias(3) = 1.0;
  moved.ItemFactors(7)[1] = 0.5;
  EXPECT_EQ(DiffItems(moved, flat, 2).items, std::vector<ItemId>{7});
}

TEST_F(IvfIndexTest, RebuildDirtyFromTheDiffSetBuildsTheIndexOfTheCrcScan) {
  const FactorModel base = testing::MakeClusteredItemModel(
      6, 3001, 8, /*num_centers=*/8, /*noise=*/0.05, 93);
  for (int threads : {1, 2, 4}) {
    IvfOptions opts;
    opts.num_clusters = 24;
    opts.pq = true;
    opts.build_threads = threads;
    const IvfIndex previous = IvfIndex::Build(base, opts);
    for (double fraction : {0.0, 0.001, 0.01, 0.2, 0.45}) {
      for (int32_t grow : {0, 5}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " fraction " +
                     std::to_string(fraction) + " grow " +
                     std::to_string(grow));
        const FactorModel cand = DriftedCandidate(base, fraction, grow, 94);
        const ItemDelta delta = DiffItems(cand, base, threads);
        int64_t from_delta = -1, from_crcs = -2;
        auto with = IvfIndex::RebuildDirty(previous, cand, opts, &from_delta,
                                           nullptr, &delta);
        auto without =
            IvfIndex::RebuildDirty(previous, cand, opts, &from_crcs);
        ASSERT_TRUE(with.ok());
        ASSERT_TRUE(without.ok());
        EXPECT_EQ(from_delta, from_crcs);
        EXPECT_EQ(IndexHash(*with), IndexHash(*without));
        EXPECT_EQ(with->item_crcs(), without->item_crcs());
        EXPECT_EQ(with->item_crcs(), IvfIndex::Build(cand, opts).item_crcs());
        EXPECT_TRUE(with->VerifyStructure("delta").ok());
      }
    }
  }
}

TEST_F(IvfIndexTest, EmptyCatalogBuildsAnEmptyIndex) {
  FactorModel model(3, 0, 4);
  const IvfIndex index = IvfIndex::Build(model, {});
  EXPECT_EQ(index.num_items(), 0);
  EXPECT_EQ(index.num_clusters(), 0);
  EXPECT_TRUE(index.VerifyStructure("test").ok());
}

}  // namespace
}  // namespace clapf

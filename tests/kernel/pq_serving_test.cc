// Serving drills for the quantized first-pass (pq) path: publish-time
// composed-recall gating (a corrupted code book is refused with a typed
// error + flight event while the prior snapshot keeps serving), full-budget
// bit-identity with the plain float ANN path, exclusion / min_score /
// deadline / batch-partial semantics under pq, per-shard code books with
// independent gates, and the frozen-book incremental rebuild. Part of the
// `pq` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/obs/metrics.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/serving/publish_request.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

class PqServingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().Reset();
    ClearScoreKernelOverride();
  }
};

FactorModel MakeServableModel(int32_t num_users, int32_t num_items,
                              int32_t num_factors, int32_t num_centers,
                              uint64_t seed) {
  return testing::MakeClusteredItemModel(num_users, num_items, num_factors,
                                         num_centers, /*noise=*/0.05, seed);
}

// The counter drills run on the one-shard server and on three shards:
// gate verdicts and the histograms count per shard index, the query
// counters once per user query.
constexpr int32_t kShardCounts[] = {1, 3};

ServerOptions PqOptions(int32_t num_shards = 1) {
  ServerOptions options;
  options.num_threads = 1;
  options.num_shards = num_shards;
  options.ann = true;
  // Each index covers one shard's catalog; on ~133-item shards the library
  // defaults (sqrt(n) clusters, 8 probes) keep the recall contract.
  options.ivf.num_clusters = num_shards == 1 ? 8 : 0;
  options.ivf.default_nprobe = num_shards == 1 ? 4 : 8;
  options.ivf.pq = true;
  options.canary.ann_recall_users = 16;
  return options;
}

int64_t CounterValue(MetricsRegistry* metrics, const std::string& name) {
  return metrics->GetCounter(name)->Value();
}

bool HasCanaryRejectEvent(const FlightRecorder& recorder) {
  for (const FlightEvent& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kCanaryReject) return true;
  }
  return false;
}

TEST_F(PqServingTest, PublishGatesComposedPathAndServesPqWithMetrics) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 121);
    ModelServer server(history, PqOptions(shards));
    ASSERT_TRUE(
        server.PublishModel(MakeServableModel(20, 400, 16, 8, 121)).ok());

    MetricsRegistry* metrics = server.mutable_metrics();
    EXPECT_EQ(CounterValue(metrics, "ann.recall_gate_pass_total"), shards);

    QueryOptions pq;
    pq.ann = true;
    pq.pq = true;
    auto got = server.Recommend(0, 10, pq);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 10u);
    EXPECT_EQ(CounterValue(metrics, "ann.queries_total"), 1);
    EXPECT_EQ(CounterValue(metrics, "ann.pq_queries_total"), 1);
    EXPECT_EQ(CounterValue(metrics, "ann.pq_fallback_total"), 0);
    const HistogramSnapshot survivors =
        metrics->GetHistogram("ann.rerank_survivors", DrawDepthBuckets())
            ->Snapshot();
    EXPECT_EQ(survivors.count, shards);
    EXPECT_GT(survivors.sum, 0.0);
    // Survivors never exceed the shortlist the first pass scanned.
    const HistogramSnapshot shortlist =
        metrics->GetHistogram("ann.shortlist_size", DrawDepthBuckets())
            ->Snapshot();
    EXPECT_EQ(shortlist.count, shards);
    EXPECT_LE(survivors.sum, shortlist.sum);
  }
}

TEST_F(PqServingTest, FullBudgetPqBitIdenticalToPlainAnn) {
  const auto history = testing::MakeLearnableDataset(16, 400, 8, 127);
  ModelServer server(history, PqOptions());
  ASSERT_TRUE(
      server.PublishModel(MakeServableModel(16, 400, 16, 8, 127)).ok());

  QueryOptions ann;
  ann.ann = true;
  QueryOptions pq = ann;
  pq.pq = true;
  pq.rerank_budget = 400;  // >= every possible shortlist: degenerate case
  for (UserId u = 0; u < 16; ++u) {
    auto want = server.Recommend(u, 10, ann);
    auto got = server.Recommend(u, 10, pq);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size()) << "user " << u;
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item) << "user " << u;
      EXPECT_EQ((*want)[x].score, (*got)[x].score) << "user " << u;
    }
  }
}

TEST_F(PqServingTest, CanaryRefusesCorruptCodesAndKeepsPriorSnapshot) {
  const auto history = testing::MakeLearnableDataset(20, 400, 8, 131);
  ServerOptions options = PqOptions();
  options.ivf.default_rerank_budget = 16;
  ModelServer server(history, options);
  ASSERT_TRUE(
      server.PublishModel(MakeServableModel(20, 400, 16, 8, 131)).ok());
  ASSERT_EQ(server.version(), 1);

  // The second publish's code book is scrambled in flight. Geometry,
  // floats, and every structural check stay intact — only the measured
  // composed-recall gate can notice, and it must refuse with a typed error,
  // a flight event, and the prior version retained. (The budget of 16 is
  // deliberately small relative to the ~25 blocks the shortlist spans:
  // survivors re-rank as whole blocks, so a budget that blankets every
  // block degenerates to plain ANN and would mask the scrambled codes.)
  FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptCodes, {});
  const Status rejected =
      server.PublishModel(MakeServableModel(20, 400, 16, 8, 132));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("recall"), std::string::npos);
  EXPECT_EQ(server.version(), 1);
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(server.stats().canary_rejects, 1);
  EXPECT_TRUE(HasCanaryRejectEvent(server.flight_recorder()));
  EXPECT_EQ(
      CounterValue(server.mutable_metrics(), "ann.recall_gate_fail_total"),
      1);

  // The retained snapshot's (uncorrupted) codes keep serving pq queries.
  FaultInjector::Instance().Reset();
  QueryOptions pq;
  pq.ann = true;
  pq.pq = true;
  EXPECT_TRUE(server.Recommend(0, 10, pq).ok());
  EXPECT_EQ(
      CounterValue(server.mutable_metrics(), "ann.pq_queries_total"), 1);
}

TEST_F(PqServingTest, ExclusionsAndMinScoreHoldUnderPq) {
  const auto history = testing::MakeLearnableDataset(12, 300, 6, 137);
  const FactorModel model = MakeServableModel(12, 300, 8, 8, 137);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  IvfGateOptions gate;
  gate.ivf.num_clusters = 8;
  gate.ivf.pq = true;
  gate.recall_floor = 0.95;
  gate.recall_users = 12;
  auto index = BuildGatedIvf(model, gate, nullptr, "test", nullptr);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const RetrievalLayers layers{&model, &packed, index->get()};

  QueryOptions ann;
  ann.ann = true;
  ann.exclude = {3, 57, 120, 250};
  ann.min_score = 0.1;
  QueryOptions pq = ann;
  pq.pq = true;
  pq.rerank_budget = 300;  // full budget: answers must match exactly
  for (UserId u = 0; u < 12; ++u) {
    auto want = testing::RetrieveTopK(layers, history, u, 10, ann);
    auto got = testing::RetrieveTopK(layers, history, u, 10, pq);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size()) << "user " << u;
    for (size_t x = 0; x < got->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item);
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
      EXPECT_GE((*got)[x].score, 0.1);
      for (ItemId ex : pq.exclude) EXPECT_NE((*got)[x].item, ex);
    }
  }
}

TEST_F(PqServingTest, DeadlineExpiresInsideQuantizedScan) {
  const auto history = testing::MakeLearnableDataset(4, 3000, 5, 139);
  const FactorModel model = MakeServableModel(4, 3000, 8, 8, 139);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  IvfOptions ivf;
  ivf.pq = true;
  const IvfIndex index = IvfIndex::Build(model, ivf);

  // Every quantized chunk stalls 2ms; a 1ms budget must expire during the
  // first pass, before any exact re-rank work runs.
  FaultInjector::Instance().Arm(FaultPoint::kServeSlowBlock,
                                {/*trigger_at_hit=*/1, /*max_fires=*/-1});
  QueryOptions pq;
  pq.ann = true;
  pq.pq = true;
  pq.deadline = std::chrono::microseconds(1000);
  auto got =
      testing::RetrieveTopK({&model, &packed, &index}, history, 0, 10, pq);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().message().find("pq"), std::string::npos);
}

TEST_F(PqServingTest, BatchPartialPrefixUnderPqMatchesUnboundedAnswers) {
  const auto history = testing::MakeLearnableDataset(16, 2000, 5, 149);
  ServerOptions options;
  options.num_threads = 1;
  options.ann = true;
  options.ivf.pq = true;
  options.canary.ann_recall_floor = 0;  // a deadline drill, not a recall one
  ModelServer server(history, options);
  ASSERT_TRUE(
      server.PublishModel(MakeServableModel(16, 2000, 8, 8, 149)).ok());

  std::vector<UserId> users(16);
  for (UserId u = 0; u < 16; ++u) users[static_cast<size_t>(u)] = u;
  QueryOptions pq;
  pq.ann = true;
  pq.pq = true;
  auto unbounded = server.RecommendBatch(users, 10, pq);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_EQ(unbounded->num_complete, users.size());

  FaultInjector::Instance().Arm(FaultPoint::kServeSlowBlock,
                                {/*trigger_at_hit=*/1, /*max_fires=*/-1});
  QueryOptions bounded = pq;
  bounded.deadline = std::chrono::microseconds(4000);
  auto partial = server.RecommendBatch(users, 10, bounded);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->deadline_exceeded);
  for (size_t i = 0; i < users.size(); ++i) {
    if (!partial->complete[i]) {
      // Unfinished users hand back nothing, never a half-scored ranking.
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

TEST_F(PqServingTest, ShardedPublishGatesEachShardCodeBookIndependently) {
  const auto history = testing::MakeLearnableDataset(20, 800, 8, 151);
  ServerOptions options = PqOptions();
  options.num_shards = 4;
  options.ivf.num_clusters = 4;  // per-shard catalogs are 200 items
  options.ivf.default_nprobe = 2;
  // Small relative to the ~13 blocks each shard's shortlist spans, so a
  // scrambled code book actually degrades the composed path the gate
  // measures (survivors re-rank as whole blocks).
  options.ivf.default_rerank_budget = 16;
  ModelServer server(history, options);
  auto model = MakeServableModel(20, 800, 16, 4, 151);
  ASSERT_TRUE(server.PublishModel(model).ok());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(
      CounterValue(server.mutable_metrics(), "ann.recall_gate_pass_total"),
      4);

  // Corrupt exactly the republished shard's code book in flight: its
  // composed gate refuses, its siblings' slices stay untouched.
  for (ItemId i : {ItemId{210}, ItemId{250}, ItemId{390}}) {
    model.ItemFactors(i)[0] += 1e-3;
  }
  FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptCodes, {});
  const Status rejected =
      server.PublishModel(PublishRequest(model).WithShard(1));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("recall"), std::string::npos);
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(
      CounterValue(server.mutable_metrics(), "ann.recall_gate_fail_total"),
      1);
  FaultInjector::Instance().Reset();

  // Fault gone: the same candidate republishes cleanly through the
  // frozen-book incremental path.
  ASSERT_TRUE(server.PublishModel(PublishRequest(model).WithShard(1)).ok());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 2, 1, 1}));
}

TEST_F(PqServingTest, ShardedFullProbeFullBudgetPqMatchesMonolithicExact) {
  const auto history = testing::MakeLearnableDataset(16, 320, 8, 157);
  const auto model = MakeServableModel(16, 320, 8, 8, 157);

  ServerOptions mono_options;
  mono_options.num_threads = 1;
  ModelServer mono(history, mono_options);
  ASSERT_TRUE(mono.PublishModel(model).ok());

  ServerOptions sharded_options = PqOptions();
  sharded_options.num_shards = 4;
  sharded_options.ivf.num_clusters = 5;
  ModelServer sharded(history, sharded_options);
  ASSERT_TRUE(sharded.PublishModel(model).ok());

  QueryOptions exact;
  QueryOptions pq;
  pq.ann = true;
  pq.pq = true;
  pq.ann_nprobe = 1 << 20;     // clamps to every cluster in every shard
  pq.rerank_budget = 1 << 20;  // every shortlisted block survives
  for (UserId u = 0; u < 16; ++u) {
    auto want = mono.Recommend(u, 12, exact);
    auto got = sharded.Recommend(u, 12, pq);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item)
          << "user " << u << " rank " << x;
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
    }
  }
}

TEST_F(PqServingTest, RebuildDirtyFreezesBookAndReencodesOnlyDirtyItems) {
  auto model = MakeServableModel(8, 300, 8, 8, 163);
  IvfOptions options;
  options.num_clusters = 8;
  options.pq = true;
  const IvfIndex before = IvfIndex::Build(model, options);
  ASSERT_TRUE(before.has_pq());

  const std::vector<ItemId> dirty = {5, 123, 280};
  for (ItemId i : dirty) model.ItemFactors(i)[0] += 1e-3;
  int64_t reassigned = 0;
  auto rebuilt = IvfIndex::RebuildDirty(before, model, options, &reassigned);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(reassigned, 3);
  ASSERT_TRUE(rebuilt->has_pq());

  // The book is frozen byte-for-byte across the incremental rebuild...
  const PqCodeBook& b0 = before.pq_codes().book();
  const PqCodeBook& b1 = rebuilt->pq_codes().book();
  ASSERT_EQ(b0.num_lanes(), b1.num_lanes());
  EXPECT_EQ(std::memcmp(b0.scale.data(), b1.scale.data(),
                        b0.scale.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(b0.offset.data(), b1.offset.data(),
                        b0.offset.size() * sizeof(float)),
            0);

  // ...so every clean item's codes decode to exactly the same values, bit
  // for bit, whatever local slot the permutations put it in.
  std::vector<ItemId> before_local(300), after_local(300);
  for (ItemId l = 0; l < 300; ++l) {
    before_local[static_cast<size_t>(before.ToGlobal(l))] = l;
    after_local[static_cast<size_t>(rebuilt->ToGlobal(l))] = l;
  }
  for (ItemId g = 0; g < 300; ++g) {
    if (g == 5 || g == 123 || g == 280) continue;
    for (int32_t lane = 0; lane < b0.num_lanes(); ++lane) {
      ASSERT_EQ(before.pq_codes().DecodeLane(
                    before_local[static_cast<size_t>(g)], lane),
                rebuilt->pq_codes().DecodeLane(
                    after_local[static_cast<size_t>(g)], lane))
          << "item " << g << " lane " << lane;
    }
  }

  // The rebuilt index still clears the composed gate against its model.
  const PackedSnapshot exact = PackedSnapshot::Build(model);
  EXPECT_TRUE(VerifyAnnRecall(exact, *rebuilt, 8, 10, 0, 0, 0.95, "rebuild")
                  .ok());
}

// The per-item encoder that the block-wise PqCodes::Encode replaced, kept
// as the byte reference.
int8_t ReferenceCode(float x, float scale, float offset) {
  if (scale == 0.0f) return 0;
  const float q = std::nearbyint((x - offset) / scale);
  return static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, q)));
}

TEST_F(PqServingTest, RebuildDirtyEncodesEveryByteLikeThePerItemEncoder) {
  // Every code byte after an incremental rebuild — pad slots of a partial
  // tail block included — is the per-item encoding of the rebuilt repack
  // under the frozen book, and every block bound the extrema of its codes,
  // for both kernels and any thread count.
  for (int32_t tail = 0; tail < kPackedBlockItems; ++tail) {
    const int32_t n = 40 * kPackedBlockItems + tail;
    const FactorModel model = MakeServableModel(8, n, 8, 8, 500 + tail);
    FactorModel moved = model;
    for (ItemId i = 3; i < n; i += 17) moved.ItemFactors(i)[1] += 0.02;
    moved.ItemBias(n - 1) += 0.3;  // the tail block's last real item
    for (ScoreKernel kernel : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
      if (!ScoreKernelSupported(kernel)) continue;
      ForceScoreKernel(kernel);
      for (int threads : {1, 4}) {
        SCOPED_TRACE("n " + std::to_string(n) + " " +
                     ScoreKernelName(kernel) + " threads " +
                     std::to_string(threads));
        IvfOptions options;
        options.num_clusters = 8;
        options.pq = true;
        options.build_threads = threads;
        const IvfIndex before = IvfIndex::Build(model, options);
        auto rebuilt = IvfIndex::RebuildDirty(before, moved, options, nullptr);
        ASSERT_TRUE(rebuilt.ok());
        const PqCodes& codes = rebuilt->pq_codes();
        const PqCodeBook& book = before.pq_codes().book();
        const PackedSnapshot& packed = rebuilt->packed();
        const int32_t lanes = codes.num_factors() + 1;
        ASSERT_EQ(codes.num_blocks(), (n + 7) / 8);
        for (int32_t b = 0; b < codes.num_blocks(); ++b) {
          for (int32_t l = 0; l < lanes; ++l) {
            int8_t lo = 127, hi = -127;
            for (int32_t j = 0; j < kPackedBlockItems; ++j) {
              const size_t at = static_cast<size_t>(l) * kPackedBlockItems +
                                static_cast<size_t>(j);
              const int8_t want =
                  b * kPackedBlockItems + j < n
                      ? ReferenceCode(
                            packed.block_data()[static_cast<size_t>(b) *
                                                    packed.block_stride() +
                                                at],
                            book.scale[static_cast<size_t>(l)],
                            book.offset[static_cast<size_t>(l)])
                      : 0;
              const int8_t got =
                  codes.block_codes()[static_cast<size_t>(b) *
                                          codes.block_stride() +
                                      at];
              ASSERT_EQ(got, want) << "block " << b << " lane " << l
                                   << " slot " << j;
              lo = std::min(lo, want);
              hi = std::max(hi, want);
            }
            const size_t bound =
                static_cast<size_t>(b / kPackedBlockItems) *
                    codes.block_stride() +
                static_cast<size_t>(l) * kPackedBlockItems +
                static_cast<size_t>(b % kPackedBlockItems);
            ASSERT_EQ(codes.bound_lane_min()[bound], lo) << "block " << b;
            ASSERT_EQ(codes.bound_lane_max()[bound], hi) << "block " << b;
          }
        }
        // Bound slots past the last block are zero.
        for (int32_t b = codes.num_blocks();
             b < codes.num_bound_superblocks() * kPackedBlockItems; ++b) {
          for (int32_t l = 0; l < lanes; ++l) {
            const size_t bound =
                static_cast<size_t>(b / kPackedBlockItems) *
                    codes.block_stride() +
                static_cast<size_t>(l) * kPackedBlockItems +
                static_cast<size_t>(b % kPackedBlockItems);
            ASSERT_EQ(codes.bound_lane_min()[bound], 0);
            ASSERT_EQ(codes.bound_lane_max()[bound], 0);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace clapf

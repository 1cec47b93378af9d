// Publish-gate drills for ANN serving: a desynced IvfIndex must be refused
// at publish time by the measured recall gate (typed refusal + flight-
// recorder event, prior snapshot keeps serving), incremental republishes
// must rebuild only dirty clusters, the sharded server must gate each
// shard's index independently (one corrupt shard never poisons its
// siblings), and full-probe sharded ANN answers must stay bit-identical to
// the monolithic exact scan. Part of the `ann` ctest label.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "clapf/model/ivf_index.h"
#include "clapf/model/score_kernel.h"
#include "clapf/obs/metrics.h"
#include "clapf/serving/publish_request.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

class AnnServingTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().Reset();
    ClearScoreKernelOverride();
  }
};

// Catalogs with directional structure (what the recall contract is stated
// on): items bundle around a handful of centers, as real catalogs do.
FactorModel MakeServableModel(int32_t num_users, int32_t num_items,
                              int32_t num_factors, int32_t num_centers,
                              uint64_t seed) {
  return testing::MakeClusteredItemModel(num_users, num_items, num_factors,
                                         num_centers, /*noise=*/0.05, seed);
}

// The counter drills run on the one-shard server and on three shards:
// index builds, gate verdicts, probes and the shortlist histogram count per
// shard index, the query counters once per user query.
constexpr int32_t kShardCounts[] = {1, 3};

ServerOptions AnnOptions(int32_t num_shards = 1) {
  ServerOptions options;
  options.num_threads = 1;
  options.num_shards = num_shards;
  options.ann = true;
  // Each index covers one shard's catalog; on ~133-item shards the library
  // defaults (sqrt(n) clusters, 8 probes) keep the recall contract.
  options.ivf.num_clusters = num_shards == 1 ? 8 : 0;
  options.ivf.default_nprobe = num_shards == 1 ? 4 : 8;
  options.canary.ann_recall_users = 16;
  return options;
}

int64_t CounterValue(MetricsRegistry* metrics, const std::string& name) {
  return metrics->GetCounter(name)->Value();
}

HistogramSnapshot HistValue(MetricsRegistry* metrics,
                            const std::string& name) {
  return metrics->GetHistogram(name, DrawDepthBuckets())->Snapshot();
}

bool HasCanaryRejectEvent(const FlightRecorder& recorder) {
  for (const FlightEvent& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kCanaryReject) return true;
  }
  return false;
}

TEST_F(AnnServingTest, PublishBuildsGatesAndServesAnn) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 61);
    ModelServer server(history, AnnOptions(shards));
    ASSERT_TRUE(
        server.PublishModel(MakeServableModel(20, 400, 16, 8, 61)).ok());

    MetricsRegistry* metrics = server.mutable_metrics();
    EXPECT_EQ(CounterValue(metrics, "ann.index_builds_total"), shards);
    EXPECT_EQ(CounterValue(metrics, "ann.recall_gate_pass_total"), shards);
    EXPECT_EQ(CounterValue(metrics, "ann.recall_gate_fail_total"), 0);

    QueryOptions ann;
    ann.ann = true;
    auto got = server.Recommend(0, 10, ann);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 10u);
    EXPECT_EQ(CounterValue(metrics, "ann.queries_total"), 1);
    EXPECT_GT(CounterValue(metrics, "ann.probes_total"), 0);
    // The shortlist depth lands in the histogram: one recording per shard
    // index, and its sum (total shortlisted items) is a strict subset of the
    // catalog at the default nprobe.
    const HistogramSnapshot shortlist =
        HistValue(metrics, "ann.shortlist_size");
    EXPECT_EQ(shortlist.count, shards);
    EXPECT_GT(shortlist.sum, 0.0);
    EXPECT_LT(shortlist.sum, 400.0);
  }
}

TEST_F(AnnServingTest, PublishTimesEachStageInTheServerRegistry) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 61);
    ServerOptions options = AnnOptions(shards);
    options.ivf.pq = true;          // the encode phase runs too
    options.canary.min_auc = 1e-9;  // runs the probe; any model clears it
    ModelServer server(history, options);
    const auto stage_hist = [&](const std::string& stage) {
      return server.mutable_metrics()
          ->GetHistogram("serving.publish.stage." + stage + "_us",
                         PublishStageBucketsUs())
          ->Snapshot();
    };
    auto model = MakeServableModel(20, 400, 16, 8, 61);
    ASSERT_TRUE(server.PublishModel(model).ok());
    // Whole-candidate stages once per publish, slice stages once per shard;
    // the ann_build phases once per shard index.
    const std::pair<const char*, int64_t> kStages[] = {
        {"integrity", 1},       {"agreement", shards},  {"ann_build", shards},
        {"ann_kmeans", shards}, {"ann_assign", shards}, {"ann_repack", shards},
        {"ann_encode", shards}, {"ann_gate", shards},   {"auc_probe", 1},
        {"swap", 1}};
    for (const auto& [stage, samples] : kStages) {
      const HistogramSnapshot hist = stage_hist(stage);
      EXPECT_EQ(hist.count, samples) << stage;
      EXPECT_GT(hist.sum, 0.0) << stage;
      EXPECT_GE(hist.bounds.back(), 60e6) << stage;
    }
    // An ANN slice's one float copy is the index's repack: no base-order
    // pack runs.
    EXPECT_EQ(stage_hist("pack").count, 0);
    // The phases split the build: together they fit inside it.
    double phase_sum = 0.0;
    for (const char* phase :
         {"ann_kmeans", "ann_assign", "ann_repack", "ann_encode"}) {
      phase_sum += stage_hist(phase).sum;
    }
    EXPECT_LE(phase_sum, stage_hist("ann_build").sum);

    // An update that moves one item rebuilds each index incrementally:
    // every phase but kmeans records a second sample.
    model.ItemFactors(7)[0] += 0.5;
    ASSERT_TRUE(server.PublishModel(model).ok());
    EXPECT_EQ(CounterValue(server.mutable_metrics(),
                           "ann.index_rebuilds_incremental_total"),
              shards);
    EXPECT_EQ(stage_hist("ann_kmeans").count, shards);
    for (const char* phase : {"ann_build", "ann_assign", "ann_repack",
                              "ann_encode"}) {
      EXPECT_EQ(stage_hist(phase).count, 2 * shards) << phase;
    }
    EXPECT_EQ(stage_hist("pack").count, 0);
  }
}

// The publish events of the last publish, one per shard, oldest first.
std::vector<FlightEvent> LastPublishEvents(const FlightRecorder& recorder,
                                           int32_t shards) {
  std::vector<FlightEvent> events;
  for (const FlightEvent& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kPublish) events.push_back(event);
  }
  if (events.size() > static_cast<size_t>(shards)) {
    events.erase(events.begin(), events.end() - shards);
  }
  return events;
}

TEST_F(AnnServingTest, PublishAgreementChecksOnlyWhatChanged) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 79);
    ModelServer server(history, AnnOptions(shards));
    const auto pairs = [&] {
      return CounterValue(server.mutable_metrics(),
                          "serving.publish.agreement_pairs_checked_total");
    };
    const auto expect_share = [&](double lo, double hi) {
      for (const FlightEvent& event :
           LastPublishEvents(server.flight_recorder(), shards)) {
        EXPECT_GE(event.x, lo) << "shard " << event.b;
        EXPECT_LE(event.x, hi) << "shard " << event.b;
      }
    };
    // Every 100th item moves: 4 of the 400, as a 1% update moves them.
    const auto drift = [](FactorModel model, double by) {
      for (ItemId i = 7; i < model.num_items(); i += 100) {
        model.ItemFactors(i)[0] += by;
      }
      return model;
    };

    // No serving slice yet: every (sampled user, block) pair is checked.
    const FactorModel first = MakeServableModel(20, 400, 16, 8, 79);
    ASSERT_TRUE(server.PublishModel(first).ok());
    const int64_t full = pairs();
    ASSERT_GT(full, 0);
    expect_share(1.0, 1.0);

    // A 1%-drift republish checks the moved items' blocks only. Each
    // shard holds one or two of them (a small shard's share can pass 10%).
    const FactorModel second = drift(first, 1e-3);
    ASSERT_TRUE(server.PublishModel(second).ok());
    const int64_t drifted = pairs() - full;
    EXPECT_GT(drifted, 0);
    EXPECT_LE(drifted * 10, full);
    expect_share(1e-9, 0.2);

    // A candidate refused after its agreement passed (a desynced index)
    // never becomes the baseline: the retry is checked against the slice
    // still serving, so it checks the same moved blocks again.
    const FactorModel third = drift(second, 1e-3);
    FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex, {});
    ASSERT_FALSE(server.PublishModel(third).ok());
    FaultInjector::Instance().Reset();
    const int64_t before_retry = pairs();
    EXPECT_GT(before_retry - full - drifted, 0);  // the refused agreement
    ASSERT_TRUE(server.PublishModel(third).ok());
    EXPECT_EQ(pairs() - before_retry, drifted);

    // Another kernel scores the packed side differently: the serving
    // slice's stamp no longer applies, so an unchanged candidate is
    // checked on every pair.
    const ScoreKernel other = ActiveScoreKernel() == ScoreKernel::kAvx2
                                  ? ScoreKernel::kPortable
                                  : ScoreKernel::kAvx2;
    if (ScoreKernelSupported(other)) {
      ForceScoreKernel(other);
      const int64_t before_switch = pairs();
      const Status switched = server.PublishModel(third);
      ClearScoreKernelOverride();
      ASSERT_TRUE(switched.ok()) << switched.ToString();
      EXPECT_EQ(pairs() - before_switch, full);
      expect_share(1.0, 1.0);
    }

    // Packed serving without an index takes the serving slice as its
    // baseline too.
    ServerOptions packed_only = AnnOptions(shards);
    packed_only.ann = false;
    ModelServer plain(history, packed_only);
    const auto plain_pairs = [&] {
      return CounterValue(plain.mutable_metrics(),
                          "serving.publish.agreement_pairs_checked_total");
    };
    ASSERT_TRUE(plain.PublishModel(first).ok());
    EXPECT_EQ(plain_pairs(), full);
    ASSERT_TRUE(plain.PublishModel(second).ok());
    EXPECT_EQ(plain_pairs() - full, drifted);
  }
}

// True when the two models hold the same bytes.
bool SameBytes(const FactorModel& a, const FactorModel& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return a.num_users() == b.num_users() && a.num_items() == b.num_items() &&
         same(a.user_factor_data(), b.user_factor_data()) &&
         same(a.item_factor_data(), b.item_factor_data()) &&
         same(a.item_bias_data(), b.item_bias_data());
}

// Every user's answer on the exact double path (which scores the slice's
// own copy of the model), the packed path and, with an index, the ANN and
// pq paths; the exact answers come first.
std::vector<std::vector<ScoredItem>> AllAnswers(ModelServer& server,
                                                int32_t users, bool ann) {
  std::vector<QueryOptions> paths(2);
  paths[0].use_packed = false;
  if (ann) {
    paths.resize(4);
    paths[2].ann = true;
    paths[3].ann = true;
    paths[3].pq = true;
  }
  std::vector<std::vector<ScoredItem>> answers;
  for (const QueryOptions& options : paths) {
    for (UserId u = 0; u < users; ++u) {
      auto got = server.Recommend(u, 10, options);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      answers.push_back(got.ok() ? *got : std::vector<ScoredItem>{});
    }
  }
  return answers;
}

void ExpectSameAnswers(const std::vector<std::vector<ScoredItem>>& want,
                       const std::vector<std::vector<ScoredItem>>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(want[q].size(), got[q].size()) << "query " << q;
    for (size_t r = 0; r < want[q].size(); ++r) {
      EXPECT_EQ(want[q][r].item, got[q][r].item) << "query " << q;
      EXPECT_EQ(want[q][r].score, got[q][r].score) << "query " << q;
    }
  }
}

TEST_F(AnnServingTest, LvaluePublishKeepsTheCallerModelAndServesLikeAMove) {
  // A const lvalue is handed over without a copy before the gate: the
  // stages read it in place and each slice copies it in tiles. The caller's
  // model stays bit-identical, every answer equals the one a server given
  // the same model by move serves, the exact answers equal the model's own
  // top-k, and a refused lvalue publish leaves the serving slice in place.
  for (int32_t shards : kShardCounts) {
    for (bool ann : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " ann=" + std::to_string(ann));
      const auto history = testing::MakeLearnableDataset(20, 400, 8, 83);
      ServerOptions options = AnnOptions(shards);
      options.ann = ann;
      options.ivf.pq = ann;
      options.ivf.build_threads = 3;
      ModelServer by_ref(history, options);
      ModelServer by_move(history, options);
      const FactorModel first = MakeServableModel(20, 400, 16, 8, 83);
      FactorModel drifted = first;
      for (ItemId i = 5; i < 400; i += 40) drifted.ItemFactors(i)[2] += 0.05;
      drifted.UserFactors(3)[0] += 0.1;
      const FactorModel second = drifted;
      const FactorModel first_bytes = first, second_bytes = second;

      for (const FactorModel* model : {&first, &second}) {
        ASSERT_TRUE(by_ref.PublishModel(*model).ok());
        ASSERT_TRUE(by_move.PublishModel(FactorModel(*model)).ok());
        const auto answers = AllAnswers(by_ref, 20, ann);
        ExpectSameAnswers(AllAnswers(by_move, 20, ann), answers);
        // The exact path scores the slices' copies: they must hold the
        // published model's bytes.
        std::vector<std::vector<ScoredItem>> want;
        for (UserId u = 0; u < 20; ++u) {
          want.push_back(model->TopKForUser(u, 10, &history));
        }
        ExpectSameAnswers(want, std::vector<std::vector<ScoredItem>>(
                                    answers.begin(), answers.begin() + 20));
      }
      EXPECT_TRUE(SameBytes(first, first_bytes));
      EXPECT_TRUE(SameBytes(second, second_bytes));
      EXPECT_EQ(by_ref.version(), 2);

      // Refused inside the slice build (the ANN gate) with an index, by the
      // whole-candidate integrity scan without one.
      FactorModel broken = first;
      if (!ann) broken.ItemFactors(17)[0] = std::nan("");
      const FactorModel refused = broken, refused_bytes = broken;
      if (ann) FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex);
      EXPECT_FALSE(by_ref.PublishModel(refused).ok());
      FaultInjector::Instance().Reset();
      EXPECT_TRUE(SameBytes(refused, refused_bytes));
      EXPECT_EQ(by_ref.version(), 2);
      EXPECT_FALSE(by_ref.degraded());
      ExpectSameAnswers(AllAnswers(by_move, 20, ann),
                        AllAnswers(by_ref, 20, ann));
    }
  }
}

// FNV-1a over a model's parameter bytes.
uint64_t ModelHash(const FactorModel& model) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::vector<double>* v :
       {&model.user_factor_data(), &model.item_factor_data(),
        &model.item_bias_data()}) {
    const auto* b = reinterpret_cast<const unsigned char*>(v->data());
    for (size_t x = 0; x < v->size() * sizeof(double); ++x) {
      h = (h ^ b[x]) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST_F(AnnServingTest, LargeLvaluePublishGatesTheCallerModelInPlace) {
  // From 32 MB up, a one-shard lvalue publish allocates its slice's
  // storage on a helper thread while the gate stages read the caller's
  // model, and copies into it after them. The slice still holds the
  // model's bytes (the exact path equals the model's own top-k), the
  // caller's model is untouched, and a candidate refused inside the slice
  // build — by the index gate, with the helper still running — leaves the
  // serving slice in place.
  constexpr int32_t kUsers = 8, kItems = 65536, kFactors = 64;
  const auto history = testing::MakeLearnableDataset(kUsers, kItems, 8, 97);
  ServerOptions options = AnnOptions(1);
  options.ivf.num_clusters = 64;
  options.ivf.default_nprobe = 64;  // every cluster: the gate reads 1.0
  options.ivf.max_train_points = 4096;
  options.ivf.build_threads = 2;
  ModelServer server(history, options);
  const FactorModel model =
      MakeServableModel(kUsers, kItems, kFactors, 8, 97);
  ASSERT_GE((model.user_factor_data().size() +
             model.item_factor_data().size() +
             model.item_bias_data().size()) *
                sizeof(double),
            size_t{32} << 20);
  const uint64_t before = ModelHash(model);
  QueryOptions exact;
  exact.use_packed = false;
  const auto expect_model_served = [&] {
    for (UserId u = 0; u < kUsers; ++u) {
      auto got = server.Recommend(u, 10, exact);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameAnswers({model.TopKForUser(u, 10, &history)}, {*got});
    }
  };

  const Status published = server.PublishModel(model);
  ASSERT_TRUE(published.ok()) << published.ToString();
  EXPECT_EQ(ModelHash(model), before);
  expect_model_served();

  FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex);
  const Status refused = server.PublishModel(model);
  FaultInjector::Instance().Reset();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("recall"), std::string::npos);
  EXPECT_EQ(ModelHash(model), before);
  EXPECT_EQ(server.version(), 1);
  expect_model_served();
}

TEST_F(AnnServingTest, FullProbeAnnServesExactAnswers) {
  const auto history = testing::MakeLearnableDataset(16, 300, 6, 67);
  ModelServer server(history, AnnOptions());
  ASSERT_TRUE(server.PublishModel(MakeServableModel(16, 300, 8, 8, 67)).ok());

  QueryOptions exact;  // packed full scan
  QueryOptions ann;
  ann.ann = true;
  ann.ann_nprobe = 8;  // every cluster: degenerates to the exact scan
  for (UserId u = 0; u < 16; ++u) {
    auto want = server.Recommend(u, 10, exact);
    auto got = server.Recommend(u, 10, ann);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item) << "user " << u;
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
    }
  }
}

TEST_F(AnnServingTest, CanaryRefusesDesyncedIndexAndKeepsPriorSnapshot) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 71);
    ModelServer server(history, AnnOptions(shards));
    ASSERT_TRUE(
        server.PublishModel(MakeServableModel(20, 400, 16, 8, 71)).ok());
    ASSERT_EQ(server.version(), 1);

    // The second publish's index is desynced in flight; the measured recall
    // gate must refuse it with a typed FailedPrecondition, record the reject
    // in the flight recorder, and keep version 1 serving.
    FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex, {});
    const Status rejected =
        server.PublishModel(MakeServableModel(20, 400, 16, 8, 72));
    EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(rejected.message().find("recall"), std::string::npos);
    EXPECT_EQ(server.version(), 1);
    EXPECT_FALSE(server.degraded());
    EXPECT_EQ(server.stats().canary_rejects, 1);
    EXPECT_TRUE(HasCanaryRejectEvent(server.flight_recorder()));
    EXPECT_EQ(CounterValue(server.mutable_metrics(),
                           "ann.recall_gate_fail_total"),
              1);

    // Queries keep working against the retained snapshot.
    QueryOptions ann;
    ann.ann = true;
    EXPECT_TRUE(server.Recommend(0, 10, ann).ok());
  }
}

TEST_F(AnnServingTest, RepublishRebuildsIncrementallyReassigningDirtyItems) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(20, 400, 8, 73);
    ModelServer server(history, AnnOptions(shards));
    auto model = MakeServableModel(20, 400, 16, 8, 73);
    ASSERT_TRUE(server.PublishModel(model).ok());

    // Perturb 5 items and republish: the online path, where full k-means per
    // publish would be unaffordable. Only the dirty items go back through
    // assignment.
    for (ItemId i : {ItemId{3}, ItemId{90}, ItemId{180}, ItemId{270},
                     ItemId{399}}) {
      model.ItemFactors(i)[0] += 1e-3;
    }
    ASSERT_TRUE(server.PublishModel(model).ok());
    EXPECT_EQ(server.version(), 2);

    MetricsRegistry* metrics = server.mutable_metrics();
    EXPECT_EQ(CounterValue(metrics, "ann.index_builds_total"), shards);
    EXPECT_EQ(CounterValue(metrics, "ann.index_rebuilds_incremental_total"),
              shards);
    EXPECT_EQ(CounterValue(metrics, "ann.index_items_reassigned_total"), 5);
    EXPECT_EQ(CounterValue(metrics, "ann.recall_gate_pass_total"),
              2 * shards);
  }
}

TEST_F(AnnServingTest, AnnQueryWithoutIndexFallsBackToFullScan) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto history = testing::MakeLearnableDataset(10, 200, 6, 79);
    ServerOptions options;
    options.num_threads = 1;
    options.num_shards = shards;
    ASSERT_FALSE(options.ann);  // ANN serving off: no index is built
    ModelServer server(history, options);
    ASSERT_TRUE(server.PublishModel(MakeServableModel(10, 200, 8, 8, 79)).ok());

    QueryOptions exact;
    QueryOptions ann;
    ann.ann = true;  // requested but unservable: silent full-scan fallback
    auto want = server.Recommend(0, 10, exact);
    auto got = server.Recommend(0, 10, ann);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item);
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
    }
    EXPECT_EQ(CounterValue(server.mutable_metrics(), "ann.fallback_total"), 1);
    EXPECT_EQ(CounterValue(server.mutable_metrics(), "ann.queries_total"), 0);
  }
}

TEST_F(AnnServingTest, ShardedPublishGatesEachShardIndexIndependently) {
  const auto history = testing::MakeLearnableDataset(20, 400, 8, 83);
  ServerOptions options = AnnOptions();
  options.num_shards = 4;
  options.ivf.num_clusters = 4;  // per-shard catalogs are 100 items
  options.ivf.default_nprobe = 2;
  ModelServer server(history, options);
  auto model = MakeServableModel(20, 400, 16, 4, 83);
  ASSERT_TRUE(server.PublishModel(model).ok());
  EXPECT_EQ(server.shard_versions(),
            (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(CounterValue(server.mutable_metrics(), "ann.index_builds_total"),
            4);
  EXPECT_EQ(CounterValue(server.mutable_metrics(),
                         "ann.recall_gate_pass_total"),
            4);

  // Nudge a few of shard 1's items (tiny: CRCs flip, geometry unmoved —
  // the online republish shape) and corrupt exactly that shard's index in
  // flight: its gate refuses, its siblings' slices are untouched, and
  // per-shard isolation holds — every chain keeps version 1.
  for (ItemId i : {ItemId{110}, ItemId{150}, ItemId{190}}) {
    model.ItemFactors(i)[0] += 1e-3;
  }
  FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex, {});
  const Status rejected =
      server.PublishModel(PublishRequest(model).WithShard(1));
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("shard 1"), std::string::npos);
  EXPECT_EQ(server.shard_versions(),
            (std::vector<int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(CounterValue(server.mutable_metrics(),
                         "ann.recall_gate_fail_total"),
            1);
  FaultInjector::Instance().Reset();

  // With the fault gone the same candidate republishes cleanly (through
  // the incremental dirty path); the other shards still serve their
  // original slices.
  ASSERT_TRUE(server.PublishModel(PublishRequest(model).WithShard(1)).ok());
  EXPECT_EQ(server.shard_versions(),
            (std::vector<int64_t>{1, 2, 1, 1}));
}

TEST_F(AnnServingTest, ShardedFullProbeAnnMatchesMonolithicExactScan) {
  const auto history = testing::MakeLearnableDataset(16, 320, 8, 89);
  const auto model = MakeServableModel(16, 320, 8, 8, 89);

  ServerOptions mono_options;
  mono_options.num_threads = 1;
  ModelServer mono(history, mono_options);
  ASSERT_TRUE(mono.PublishModel(model).ok());

  ServerOptions sharded_options = AnnOptions();
  sharded_options.num_shards = 4;
  sharded_options.ivf.num_clusters = 5;
  ModelServer sharded(history, sharded_options);
  ASSERT_TRUE(sharded.PublishModel(model).ok());

  QueryOptions exact;
  QueryOptions ann;
  ann.ann = true;
  ann.ann_nprobe = 1 << 20;  // clamps to every cluster in every shard
  for (UserId u = 0; u < 16; ++u) {
    auto want = mono.Recommend(u, 12, exact);
    auto got = sharded.Recommend(u, 12, ann);
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

}  // namespace
}  // namespace clapf

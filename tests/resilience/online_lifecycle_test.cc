// Online-lifecycle drills: the OnlineTrainer determinism contract, the
// ContinuousDeployer's ingest → train → publish loop, and the crash-resume
// handshake. The load-bearing properties:
//
//   * Determinism — trainer state is a pure function of (options, record
//     sequence, increment boundaries), so a crash-resumed deployer is
//     bit-consistent with an uninterrupted run over the same WAL.
//   * No unvetted snapshot ever serves — every publish (live, recovery,
//     post-rollback) goes through the ModelServer canary gate, and a refusal
//     rolls the trainer back to the last published-good bits.
//   * The day-replay drill at the bottom is the acceptance test: a full
//     simulated day with a mid-append kill, a corrupted WAL segment, a
//     divergent increment, and an injected publish regression — the system
//     must recover from all four and end healthy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clapf/data/split.h"
#include "clapf/obs/metrics.h"
#include "clapf/online/continuous_deployer.h"
#include "clapf/online/online_trainer.h"
#include "clapf/online/wal.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/logging.h"
#include "clapf/util/status.h"
#include "testing/fault_schedule.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

using clapf::testing::ScopedFaultSchedule;

constexpr int32_t kUsers = 24;
constexpr int32_t kItems = 32;

Dataset Envelope() {
  return testing::MakeLearnableDataset(kUsers, kItems, 10, 3);
}

// A fresh WAL + checkpoint directory pair for one test.
struct Dirs {
  std::string wal;
  std::string ckpt;
};

Dirs FreshDirs(const std::string& name) {
  Dirs dirs;
  dirs.wal = ::testing::TempDir() + "online_" + name + "_wal";
  dirs.ckpt = ::testing::TempDir() + "online_" + name + "_ckpt";
  std::filesystem::remove_all(dirs.wal);
  std::filesystem::remove_all(dirs.ckpt);
  return dirs;
}

ServerOptions Serving(double min_auc = 0.0, int32_t num_shards = 1) {
  ServerOptions options;
  options.num_threads = 2;
  options.canary.min_auc = min_auc;
  options.num_shards = num_shards;
  return options;
}

// Shard counts the crash-resume drill publishes to.
constexpr int32_t kShardCounts[] = {1, 3};

DeployerOptions Deploying(const Dirs& dirs,
                          MetricsRegistry* metrics = nullptr) {
  DeployerOptions options;
  options.wal.dir = dirs.wal;
  options.checkpoint_dir = dirs.ckpt;
  options.trainer.sgd.num_factors = 8;
  options.trainer.sgd.learning_rate = 0.1;
  options.trainer.sgd.seed = 5;
  options.trainer.sgd.divergence.policy = DivergencePolicy::kHalt;
  options.trainer.epochs_per_increment = 4;
  options.trainer.reservoir_capacity = 256;
  options.min_increment_records = 6;
  options.metrics = metrics;
  return options;
}

// The deterministic in-envelope arrival at stream position p.
std::pair<UserId, ItemId> ArrivalAt(int64_t p) {
  return {static_cast<UserId>((p * 7 + 1) % kUsers),
          static_cast<ItemId>((p * 5 + 2) % kItems)};
}

void ExpectSameBits(const FactorModel& a, const FactorModel& b,
                    const std::string& context) {
  ASSERT_EQ(a.num_users(), b.num_users()) << context;
  ASSERT_EQ(a.num_items(), b.num_items()) << context;
  // operator== on the vectors: bit-identity, not tolerance.
  EXPECT_EQ(a.user_factor_data(), b.user_factor_data()) << context;
  EXPECT_EQ(a.item_factor_data(), b.item_factor_data()) << context;
  EXPECT_EQ(a.item_bias_data(), b.item_bias_data()) << context;
}

int CountEvents(const FlightRecorder& recorder, FlightEventKind kind) {
  int n = 0;
  for (const FlightEvent& e : recorder.Snapshot()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::string EventDetail(const FlightRecorder& recorder, FlightEventKind kind) {
  for (const FlightEvent& e : recorder.Snapshot()) {
    if (e.kind == kind) return e.detail;
  }
  return "";
}

// ---------------------------------------------------------------------------
// OnlineTrainer

TEST(OnlineTrainerTest, SameStreamSameBoundariesIsBitIdentical) {
  Dataset bootstrap = testing::MakeDataset(4, 6, {{0, 1}, {1, 2}, {2, 3}});
  OnlineTrainerOptions options;
  options.sgd.num_factors = 4;
  options.sgd.seed = 9;
  options.reservoir_capacity = 32;

  OnlineTrainer a(bootstrap, options);
  OnlineTrainer b(bootstrap, options);
  for (int64_t p = 0; p < 20; ++p) {
    // Ids past the bootstrap dimensions grow the model on the fly.
    auto [u, i] = std::pair<UserId, ItemId>{static_cast<UserId>(p % 7),
                                            static_cast<ItemId>(p % 9)};
    a.Ingest(u, i);
    b.Ingest(u, i);
    if ((p + 1) % 5 == 0) {
      const uint64_t seed = 100 + static_cast<uint64_t>(p);
      ASSERT_TRUE(a.TrainIncrement(seed).ok());
      ASSERT_TRUE(b.TrainIncrement(seed).ok());
    }
  }
  EXPECT_EQ(a.num_users(), 7);
  EXPECT_EQ(a.num_items(), 9);
  EXPECT_EQ(a.increments(), 4);
  ExpectSameBits(a.model(), b.model(), "independent identical streams");
}

// FNV-1a, 64-bit, over the model's user factors, item factors and biases.
uint64_t FactorHash(const FactorModel& model) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::vector<double>& values) {
    const auto* b = reinterpret_cast<const unsigned char*>(values.data());
    for (size_t x = 0; x < values.size() * sizeof(double); ++x) {
      h ^= b[x];
      h *= 0x100000001b3ull;
    }
  };
  mix(model.user_factor_data());
  mix(model.item_factor_data());
  mix(model.item_bias_data());
  return h;
}

TEST(OnlineTrainerTest, TwoIncrementsReproduceThePinnedFactors) {
  // Hashes recorded when the trainer carried its own copy of the BPR step,
  // before it moved onto the batch trainer's worker: one thread, a fixed
  // stream that grows the model past its bootstrap dimensions, two
  // increments — with item biases and without.
  const struct {
    bool bias;
    uint64_t hash;
  } kPins[] = {{true, 0x4cf7937446f1e3f5ull}, {false, 0x69510f1335c0b09dull}};
  for (const auto& pin : kPins) {
    SCOPED_TRACE(pin.bias ? "bias on" : "bias off");
    OnlineTrainerOptions options;
    options.sgd.num_factors = 6;
    options.sgd.seed = 17;
    options.sgd.use_item_bias = pin.bias;
    options.reservoir_capacity = 48;
    OnlineTrainer trainer(testing::MakeLearnableDataset(10, 16, 4, 13),
                          options);
    for (int64_t p = 0; p < 40; ++p) {
      trainer.Ingest(static_cast<UserId>((p * 3 + 1) % 12),
                     static_cast<ItemId>((p * 7 + 2) % 19));
      if (p == 19) {
        ASSERT_TRUE(trainer.TrainIncrement(101).ok());
      }
    }
    ASSERT_TRUE(trainer.TrainIncrement(202).ok());
    EXPECT_EQ(trainer.increments(), 2);
    EXPECT_EQ(trainer.model().num_items(), 19);
    EXPECT_EQ(FactorHash(trainer.model()), pin.hash);
  }
}

TEST(OnlineTrainerTest, DivergenceHaltRestoresTheModelAndKeepsTheTail) {
  Dataset bootstrap = testing::MakeLearnableDataset(8, 12, 4, 1);
  OnlineTrainerOptions options;
  options.sgd.num_factors = 4;
  options.sgd.seed = 2;
  options.sgd.divergence.policy = DivergencePolicy::kHalt;
  OnlineTrainer trainer(bootstrap, options);
  for (int64_t p = 0; p < 6; ++p) trainer.Ingest(p % 8, p % 12);
  const FactorModel before = trainer.model();

  ScopedFaultSchedule faults(
      {{FaultPoint::kSgdStepNan, {.trigger_at_hit = 1}}});
  Status halted = trainer.TrainIncrement(7);
  EXPECT_FALSE(halted.ok());
  // The halted increment left no trace on the parameters, and the tail is
  // kept for the caller to retry or discard.
  ExpectSameBits(trainer.model(), before, "after halted increment");
  EXPECT_EQ(trainer.tail_size(), 6);
  EXPECT_EQ(trainer.increments(), 0);
  faults.Disarm(FaultPoint::kSgdStepNan);

  ASSERT_TRUE(trainer.TrainIncrement(7).ok());
  EXPECT_EQ(trainer.tail_size(), 0);
  EXPECT_EQ(trainer.increments(), 1);
}

// ---------------------------------------------------------------------------
// ContinuousDeployer basics

TEST(DeployerTest, LifecyclePublishesThroughTheGate) {
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  MetricsRegistry metrics;
  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, split.train,
                              Deploying(FreshDirs("lifecycle"), &metrics));
  ASSERT_TRUE(deployer.Start().ok());
  EXPECT_EQ(deployer.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.degraded());  // nothing published yet
  EXPECT_EQ(CountEvents(deployer.flight_recorder(),
                        FlightEventKind::kWalRecovery),
            1);

  // Below the increment threshold: logged but not trained.
  for (int64_t p = 0; p < 4; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  auto idle = deployer.RunCycle();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(*idle);
  EXPECT_EQ(deployer.wal_position(), 4);
  EXPECT_EQ(deployer.trained_position(), 0);

  for (int64_t p = 4; p < 6; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  auto cycled = deployer.RunCycle();
  ASSERT_TRUE(cycled.ok());
  EXPECT_TRUE(*cycled);
  EXPECT_EQ(deployer.trained_position(), 6);
  EXPECT_EQ(deployer.published_version(), 1);
  EXPECT_EQ(server.version(), 1);
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(CountEvents(deployer.flight_recorder(),
                        FlightEventKind::kOnlinePublish),
            1);
  EXPECT_EQ(metrics.GetCounter("online.ingested_total")->Value(), 6);
  EXPECT_EQ(metrics.GetCounter("online.publishes_total")->Value(), 1);

  // The published snapshot is padded to the serving envelope: any user in
  // the universe is answerable, trained or not.
  EXPECT_TRUE(server.Recommend(0, 5).ok());
  EXPECT_TRUE(server.Recommend(kUsers - 1, 5).ok());

  // `force` flushes a tail below the threshold — the end-of-day drain.
  auto [u, i] = ArrivalAt(6);
  ASSERT_TRUE(deployer.Ingest(u, i).ok());
  auto forced = deployer.RunCycle(/*force=*/true);
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(*forced);
  EXPECT_EQ(deployer.trained_position(), 7);
  EXPECT_EQ(server.version(), 2);
}

TEST(DeployerTest, RefusesUnstartedCallsAndOutOfEnvelopeArrivals) {
  Dataset envelope = Envelope();
  MetricsRegistry metrics;
  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, envelope,
                              Deploying(FreshDirs("refuse"), &metrics));
  EXPECT_EQ(deployer.Ingest(0, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(deployer.RunCycle().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(deployer.Start().ok());
  EXPECT_EQ(deployer.Ingest(kUsers, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(deployer.Ingest(0, kItems).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(deployer.Ingest(-1, 0).code(), StatusCode::kInvalidArgument);
  // A refused arrival is neither logged nor counted as ingested.
  EXPECT_EQ(deployer.wal_position(), 0);
  EXPECT_EQ(metrics.GetCounter("online.ingest_rejected_total")->Value(), 3);
  EXPECT_EQ(metrics.GetCounter("online.ingested_total")->Value(), 0);
}

TEST(DeployerTest, WithoutCheckpointsRecoveryRetrainsTheWholeWal) {
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  Dirs dirs = FreshDirs("no_ckpt");
  DeployerOptions options = Deploying(dirs);
  options.checkpoint_dir.clear();  // crash recovery = full replay

  {
    ModelServer server(envelope, Serving());
    ContinuousDeployer deployer(&server, split.train, options);
    ASSERT_TRUE(deployer.Start().ok());
    for (int64_t p = 0; p < 12; ++p) {
      auto [u, i] = ArrivalAt(p);
      ASSERT_TRUE(deployer.Ingest(u, i).ok());
      ASSERT_TRUE(deployer.RunCycle().ok());
    }
    EXPECT_EQ(deployer.trained_position(), 12);
  }  // crash

  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, split.train, options);
  ASSERT_TRUE(deployer.Start().ok());
  // No checkpoint to restore: nothing trained yet, nothing republished —
  // the whole log is fresh tail again.
  EXPECT_EQ(deployer.trained_position(), 0);
  EXPECT_EQ(deployer.published_version(), 0);
  EXPECT_EQ(deployer.wal_position(), 12);
  auto cycled = deployer.RunCycle();
  ASSERT_TRUE(cycled.ok());
  EXPECT_TRUE(*cycled);
  EXPECT_EQ(deployer.trained_position(), 12);
  EXPECT_EQ(server.version(), 1);
}

// ---------------------------------------------------------------------------
// Rollback paths

TEST(DeployerTest, RefusedPublishRollsTheTrainerBackToLastGood) {
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  Dirs dirs = FreshDirs("gate_rollback");
  MetricsRegistry metrics;
  DeployerOptions options = Deploying(dirs, &metrics);
  options.flight_dump_path = dirs.wal + "/incident.json";
  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, split.train, options);
  ASSERT_TRUE(deployer.Start().ok());

  for (int64_t p = 0; p < 6; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ASSERT_TRUE(deployer.RunCycle().ok());
  ASSERT_EQ(server.version(), 1);
  const FactorModel last_good = deployer.trainer().model();

  // The next cycle's candidate is poisoned before the gate: the gate must
  // refuse it and the trainer must forget it ever trained that increment.
  for (int64_t p = 6; p < 12; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeCorruptCandidate, {.trigger_at_hit = 1}}});
  auto cycled = deployer.RunCycle();
  ASSERT_TRUE(cycled.ok());
  EXPECT_TRUE(*cycled);
  faults.Disarm(FaultPoint::kServeCorruptCandidate);

  // Nothing unvetted reached traffic and the regression did not stick.
  EXPECT_EQ(server.version(), 1);
  EXPECT_EQ(deployer.published_version(), 1);
  ExpectSameBits(deployer.trainer().model(), last_good,
                 "trainer after refused publish");
  EXPECT_EQ(deployer.trained_position(), 12);  // the records stay consumed
  EXPECT_EQ(metrics.GetCounter("online.publish_rollbacks_total")->Value(), 1);
  EXPECT_EQ(CountEvents(deployer.flight_recorder(),
                        FlightEventKind::kAucRegressionRollback),
            1);
  // The incident black box was dumped automatically.
  EXPECT_TRUE(std::filesystem::exists(options.flight_dump_path));

  // The loop is not wedged: the next clean increment publishes.
  for (int64_t p = 12; p < 18; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ASSERT_TRUE(deployer.RunCycle().ok());
  EXPECT_EQ(server.version(), 2);
}

TEST(DeployerTest, DivergentIncrementRollsBackAndStillAdvances) {
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  MetricsRegistry metrics;
  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, split.train,
                              Deploying(FreshDirs("diverge"), &metrics));
  ASSERT_TRUE(deployer.Start().ok());

  for (int64_t p = 0; p < 6; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ASSERT_TRUE(deployer.RunCycle().ok());
  ASSERT_EQ(server.version(), 1);
  const FactorModel before = deployer.trainer().model();

  for (int64_t p = 6; p < 12; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ScopedFaultSchedule faults(
      {{FaultPoint::kSgdStepNan, {.trigger_at_hit = 1}}});
  auto cycled = deployer.RunCycle();
  ASSERT_TRUE(cycled.ok());
  EXPECT_TRUE(*cycled);  // handled internally, not surfaced
  faults.Disarm(FaultPoint::kSgdStepNan);

  // The divergent step never reached the model or the server, but its
  // records are consumed — a deterministic divergence must not re-fire on
  // every future cycle (or on crash replay: the checkpoint advanced too).
  ExpectSameBits(deployer.trainer().model(), before,
                 "trainer after divergent increment");
  EXPECT_EQ(server.version(), 1);
  EXPECT_EQ(deployer.trained_position(), 12);
  EXPECT_EQ(metrics.GetCounter("online.increment_rollbacks_total")->Value(),
            1);
  EXPECT_EQ(CountEvents(deployer.flight_recorder(),
                        FlightEventKind::kInternalError),
            1);

  for (int64_t p = 12; p < 18; ++p) {
    auto [u, i] = ArrivalAt(p);
    ASSERT_TRUE(deployer.Ingest(u, i).ok());
  }
  ASSERT_TRUE(deployer.RunCycle().ok());
  EXPECT_EQ(server.version(), 2);
}

// ---------------------------------------------------------------------------
// Crash resume

// The determinism contract end to end: a deployer killed mid-append and
// resumed from its WAL + checkpoint must converge to the SAME bits as one
// that ran the day uninterrupted — same arrivals, same cycle boundaries.
TEST(DeployerTest, CrashResumeIsBitConsistentWithAnUninterruptedRun) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Dataset envelope = Envelope();
    TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
    constexpr int64_t kArrivals = 24;
    constexpr int64_t kCrashAt = 15;  // mid-increment: after cycles at 6, 12

    // Reference run: the whole day, no interruptions.
    Dirs dirs_a = FreshDirs("resume_a" + std::to_string(shards));
    ModelServer server_a(envelope, Serving(0.0, shards));
    ContinuousDeployer uninterrupted(&server_a, split.train,
                                     Deploying(dirs_a));
    ASSERT_TRUE(uninterrupted.Start().ok());
    for (int64_t p = 0; p < kArrivals; ++p) {
      auto [u, i] = ArrivalAt(p);
      ASSERT_TRUE(uninterrupted.Ingest(u, i).ok());
      ASSERT_TRUE(uninterrupted.RunCycle().ok());
    }

    // Crashing run: same dirs across both incarnations.
    Dirs dirs_b = FreshDirs("resume_b" + std::to_string(shards));
    {
      ModelServer server(envelope, Serving(0.0, shards));
      ContinuousDeployer deployer(&server, split.train, Deploying(dirs_b));
      ASSERT_TRUE(deployer.Start().ok());
      for (int64_t p = 0; p < kCrashAt; ++p) {
        auto [u, i] = ArrivalAt(p);
        ASSERT_TRUE(deployer.Ingest(u, i).ok());
        ASSERT_TRUE(deployer.RunCycle().ok());
      }
      // The kill lands mid-append: arrival kCrashAt tears its WAL frame and
      // the writer dies. The record was never logged, so it was never
      // ingested either — the resumed run must re-send it.
      ScopedFaultSchedule faults(
          {{FaultPoint::kWalAppendTorn, {.trigger_at_hit = 1}}});
      auto [u, i] = ArrivalAt(kCrashAt);
      EXPECT_EQ(deployer.Ingest(u, i).code(), StatusCode::kIoError);
    }  // the process is gone

    ModelServer server_b(envelope, Serving(0.0, shards));
    ContinuousDeployer resumed(&server_b, split.train, Deploying(dirs_b));
    ASSERT_TRUE(resumed.Start().ok());
    // Recovery: torn tail truncated, checkpoint at position 12 restored, the
    // untrained suffix [12, 15) replayed into the tail, and the recovered
    // model republished through the gate.
    EXPECT_EQ(resumed.wal_position(), kCrashAt);
    EXPECT_EQ(resumed.trained_position(), 12);
    EXPECT_EQ(resumed.trainer().tail_size(), kCrashAt - 12);
    EXPECT_EQ(server_b.version(), 1);
    EXPECT_EQ(resumed.published_version(), 1);
    EXPECT_FALSE(server_b.degraded());
    EXPECT_EQ(CountEvents(resumed.flight_recorder(),
                          FlightEventKind::kWalRecovery),
              1);

    for (int64_t p = kCrashAt; p < kArrivals; ++p) {
      auto [u, i] = ArrivalAt(p);
      ASSERT_TRUE(resumed.Ingest(u, i).ok());
      ASSERT_TRUE(resumed.RunCycle().ok());
    }
    EXPECT_EQ(resumed.trained_position(), kArrivals);
    ExpectSameBits(resumed.trainer().model(), uninterrupted.trainer().model(),
                   "crash-resumed vs uninterrupted");
  }
}

// ---------------------------------------------------------------------------
// Ingest-while-serving (the Tsan drill for deployer/server concurrency)

TEST(DeployerTest, IngestAndPublishRaceServingTraffic) {
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  MetricsRegistry metrics;
  DeployerOptions options = Deploying(FreshDirs("race"), &metrics);
  options.min_increment_records = 4;
  options.trainer.epochs_per_increment = 1;  // keep increments quick
  ModelServer server(envelope, Serving());
  ContinuousDeployer deployer(&server, split.train, options);
  ASSERT_TRUE(deployer.Start().ok());

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int64_t p = 0; p < 64; ++p) {
      auto [u, i] = ArrivalAt(p);
      CLAPF_CHECK_OK(deployer.Ingest(u, i));
      auto cycled = deployer.RunCycle();
      CLAPF_CHECK_OK(cycled.status());
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<int64_t> answered{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      int64_t q = 0;
      while (!done.load()) {
        auto got = server.Recommend((t * 7 + q++) % kUsers, 5);
        // Degraded (pre-first-publish) answers and real answers are both
        // fine; what must never happen is a crash or a torn snapshot.
        if (got.ok()) answered.fetch_add(1);
      }
    });
  }
  producer.join();
  for (auto& r : readers) r.join();

  auto flushed = deployer.RunCycle(/*force=*/true);
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(deployer.trained_position(), 64);
  EXPECT_GE(server.version(), 1);
  EXPECT_TRUE(server.Recommend(0, 5).ok());
  EXPECT_GT(answered.load(), 0);
}

// ---------------------------------------------------------------------------
// The day-replay acceptance drill

// One simulated day against a real canary floor, with every injected
// failure from the issue: a kill mid-WAL-append, a corrupted segment, a
// divergent increment, and a poisoned candidate. Invariants: no unvetted
// snapshot ever serves (the deployer's published version always equals the
// server's), every regression rolls back automatically, and the day ends
// with a healthy model above the AUC floor.
TEST(DeployerDayDrillTest, SurvivesAFullDayOfInjectedFaults) {
  constexpr double kAucFloor = 0.55;
  Dataset envelope = Envelope();
  TrainTestSplit split = SplitRandom(envelope, 0.5, 1);
  // The day's traffic: the held-out half of the planted-structure history,
  // user-major — learnable, so training genuinely clears the floor.
  std::vector<std::pair<UserId, ItemId>> day;
  for (UserId u = 0; u < split.test.num_users(); ++u) {
    for (ItemId i : split.test.ItemsOf(u)) day.emplace_back(u, i);
  }
  ASSERT_GT(day.size(), 40u);

  Dirs dirs = FreshDirs("day_drill");
  MetricsRegistry metrics;
  DeployerOptions options = Deploying(dirs, &metrics);
  options.min_increment_records = 8;
  options.wal.segment_bytes = 20 + 16 * 8;  // 8 records/segment: many files
  options.flight_dump_path = dirs.wal + "/incident.json";

  // Morning to evening: ingest the day, cycling as records accumulate.
  // Early candidates may be refused by the AUC floor — that is the gate
  // doing its job; the trainer keeps learning until it clears it.
  {
    ModelServer server(envelope, Serving(kAucFloor));
    ContinuousDeployer deployer(&server, split.train, options);
    ASSERT_TRUE(deployer.Start().ok());
    for (const auto& [u, i] : day) {
      ASSERT_TRUE(deployer.Ingest(u, i).ok());
      ASSERT_TRUE(deployer.RunCycle().ok());
      // Nothing unvetted ever serves, at every step of the day.
      ASSERT_EQ(deployer.published_version(), server.version());
    }
    auto flushed = deployer.RunCycle(/*force=*/true);
    ASSERT_TRUE(flushed.ok());
    // By close of day the model clears the floor and serves.
    ASSERT_GT(deployer.published_version(), 0);
    ASSERT_EQ(deployer.published_version(), server.version());
    ASSERT_FALSE(server.degraded());

    // The kill: one more arrival tears its append mid-frame.
    ScopedFaultSchedule faults(
        {{FaultPoint::kWalAppendTorn, {.trigger_at_hit = 1}}});
    EXPECT_EQ(deployer.Ingest(day[0].first, day[0].second).code(),
              StatusCode::kIoError);
  }  // lights out

  // Silent media corruption while the process is down: a payload byte in an
  // early segment flips (the last segment stays clean for the writer).
  {
    const std::string segment0 =
        dirs.wal + "/" + InteractionWal::SegmentFileName(0);
    std::fstream f(segment0,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(20 + 16 + 8);  // second frame's payload
    char byte = 0x7F;
    f.write(&byte, 1);
  }

  // Recovery: reopen over the same WAL + checkpoints. The torn tail is
  // truncated, the corrupt segment is skipped (and reported), and the
  // checkpointed model goes back through the same canary gate — recovery
  // never skips vetting, and the recovered AUC is within the floor.
  ModelServer server(envelope, Serving(kAucFloor));
  ContinuousDeployer deployer(&server, split.train, options);
  ASSERT_TRUE(deployer.Start().ok());
  EXPECT_EQ(server.version(), 1);
  EXPECT_EQ(deployer.published_version(), 1);
  EXPECT_FALSE(server.degraded());
  const std::string recovery =
      EventDetail(deployer.flight_recorder(), FlightEventKind::kWalRecovery);
  EXPECT_NE(recovery.find("corrupt_segments=1"), std::string::npos)
      << recovery;

  // Afternoon incident #1: a divergent increment. Rolled back, consumed,
  // never served.
  {
    ScopedFaultSchedule faults(
        {{FaultPoint::kSgdStepNan, {.trigger_at_hit = 1}}});
    ASSERT_TRUE(deployer.Ingest(day[0].first, day[0].second).ok());
    ASSERT_TRUE(deployer.Ingest(day[1].first, day[1].second).ok());
    auto cycled = deployer.RunCycle(/*force=*/true);
    ASSERT_TRUE(cycled.ok());
    EXPECT_TRUE(*cycled);
  }
  EXPECT_EQ(server.version(), 1);
  EXPECT_EQ(metrics.GetCounter("online.increment_rollbacks_total")->Value(),
            1);

  // Afternoon incident #2: an injected regression at the gate. Refused,
  // trainer rolled back, incident recorded and dumped.
  {
    ScopedFaultSchedule faults(
        {{FaultPoint::kServeCorruptCandidate, {.trigger_at_hit = 1}}});
    ASSERT_TRUE(deployer.Ingest(day[2].first, day[2].second).ok());
    ASSERT_TRUE(deployer.Ingest(day[3].first, day[3].second).ok());
    auto cycled = deployer.RunCycle(/*force=*/true);
    ASSERT_TRUE(cycled.ok());
    EXPECT_TRUE(*cycled);
  }
  EXPECT_EQ(server.version(), 1);
  EXPECT_EQ(deployer.published_version(), 1);
  EXPECT_GE(CountEvents(deployer.flight_recorder(),
                        FlightEventKind::kAucRegressionRollback),
            1);
  EXPECT_TRUE(std::filesystem::exists(options.flight_dump_path));

  // Evening: a clean increment publishes and the day ends healthy.
  for (size_t p = 4; p < 12; ++p) {
    ASSERT_TRUE(deployer.Ingest(day[p].first, day[p].second).ok());
  }
  auto evening = deployer.RunCycle(/*force=*/true);
  ASSERT_TRUE(evening.ok());
  EXPECT_TRUE(*evening);
  EXPECT_EQ(server.version(), 2);
  EXPECT_EQ(deployer.published_version(), 2);
  EXPECT_FALSE(server.degraded());
  EXPECT_TRUE(server.Recommend(0, 5).ok());
}

}  // namespace
}  // namespace clapf

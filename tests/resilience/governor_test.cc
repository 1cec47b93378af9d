// Adaptive-governor and flight-recorder drills: the control loop must move
// every knob only inside its declared bounds, recover once pressure clears,
// and leave a deterministic incident narrative in the flight recorder. The
// acceptance drill at the bottom is the bar: under fault-injected overload,
// the ondemand governor keeps the deadline-miss rate below a server with no
// governor by shedding early instead of serving doomed queries.
//
// This suite is also the Tsan acceptance gate for the governor ticker thread
// and the lock-free flight-recorder ring (see the *RaceFree drills).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clapf/obs/metrics.h"
#include "clapf/serving/flight_recorder.h"
#include "clapf/serving/governor.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/logging.h"
#include "clapf/util/random.h"
#include "testing/fault_schedule.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

using clapf::testing::ScopedFaultSchedule;

constexpr int32_t kUsers = 30;
constexpr int32_t kItems = 40;

Dataset History() {
  return testing::MakeLearnableDataset(kUsers, kItems, 8, 7);
}

// Structurally valid, untrained model — clears the default canary gate.
FactorModel RandomModel(uint64_t seed) {
  FactorModel model(kUsers, kItems, 8);
  Rng rng(seed);
  model.InitGaussian(rng);
  return model;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- Flight recorder ------------------------------------------------------

TEST(FlightRecorderTest, RetainsNewestEventsAndCountsDrops) {
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    recorder.Record(FlightEventKind::kShed, "event " + std::to_string(i), i);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);

  auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest retained first
    EXPECT_EQ(events[i].a, static_cast<int64_t>(12 + i));
    EXPECT_EQ(std::string(events[i].detail),
              "event " + std::to_string(12 + i));
  }
}

TEST(FlightRecorderTest, DumpWithoutTimestampsIsDeterministic) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kBreakerTrip, "breaker fired", 3, 0, 0.75);
  recorder.Record(FlightEventKind::kRollback, "rolled back", 3, 2);
  recorder.Record(FlightEventKind::kGovernorAdjust, "queue_depth pressure",
                  64, 2);

  FlightDumpOptions stable;
  stable.include_timestamps = false;
  const std::string first = recorder.DumpJson(stable);
  const std::string second = recorder.DumpJson(stable);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"kind\":\"breaker-trip\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"rollback\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"governor-adjust\""), std::string::npos);
  EXPECT_NE(first.find("\"x\":0.75"), std::string::npos);
  EXPECT_NE(first.find("\"elapsed_us\":0"), std::string::npos);
}

TEST(FlightRecorderTest, OversizedDetailIsTruncatedNotOverflowed) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventKind::kCanaryReject,
                  std::string(500, 'x'));
  auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail),
            std::string(kFlightEventDetailBytes - 1, 'x'));
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersSeeNoTornEvents) {
  // Writers stamp every word of the payload with the same value; a torn
  // read (mixed slots or a half-written event) would break the invariant.
  FlightRecorder recorder(32);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const FlightEvent& e : recorder.Snapshot()) {
          if (e.a != e.b || e.x != static_cast<double>(e.a)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int64_t v = static_cast<int64_t>(w) * kPerWriter + i;
        recorder.Record(FlightEventKind::kShed, "concurrent", v, v,
                        static_cast<double>(v));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  // A quiescent ring yields exactly capacity() consistent events.
  EXPECT_EQ(recorder.Snapshot().size(), recorder.capacity());
}

// --- Ondemand governor ---------------------------------------------------

TEST(ServingGovernorTest, OndemandClampsToDeclaredBoundsAndPropagates) {
  MetricsRegistry registry;
  AdmissionQueue queue(1, 16, &registry);
  FlightRecorder recorder(32);
  GovernorOptions options;
  options.interval_us = 0;  // manual ticks only
  options.bounds.min_queue_depth = 2;
  options.bounds.min_deadline_budget_us = 2000;
  ServingGovernor governor(options, 16, &registry, &queue, &recorder);

  EXPECT_EQ(governor.knobs().max_queue_depth, 16);
  EXPECT_EQ(governor.knobs().deadline_budget_us, 0);

  // One shed since the last tick is pressure by itself.
  registry.GetCounter("serving.shed_total")->Inc();
  governor.Tick();

  GovernorKnobs knobs = governor.knobs();
  EXPECT_EQ(knobs.max_queue_depth, 2);
  EXPECT_EQ(knobs.deadline_budget_us, 2000);
  EXPECT_EQ(queue.max_depth(), 2);  // propagated to the admission gate
  EXPECT_GE(governor.adjustments(), 2);

  // ApplyToQuery: an unbounded query inherits the budget and a tighter
  // client deadline is kept.
  QueryOptions unbounded;
  governor.ApplyToQuery(&unbounded);
  EXPECT_EQ(unbounded.deadline, std::chrono::microseconds(2000));
  QueryOptions tight;
  tight.deadline = std::chrono::microseconds(500);
  governor.ApplyToQuery(&tight);
  EXPECT_EQ(tight.deadline, std::chrono::microseconds(500));

  // Every knob movement landed in the flight recorder.
  int adjust_events = 0;
  for (const FlightEvent& e : recorder.Snapshot()) {
    if (e.kind == FlightEventKind::kGovernorAdjust) ++adjust_events;
  }
  EXPECT_EQ(adjust_events, governor.adjustments());
}

TEST(ServingGovernorTest, OndemandDecaysBackToRestAfterCalm) {
  MetricsRegistry registry;
  AdmissionQueue queue(1, 16, &registry);
  FlightRecorder recorder(64);
  GovernorOptions options;
  options.interval_us = 0;
  options.decay_ticks = 1;  // one calm tick per relaxation step
  options.bounds.min_queue_depth = 2;
  options.bounds.min_deadline_budget_us = 2000;
  ServingGovernor governor(options, 16, &registry, &queue, &recorder);

  registry.GetCounter("serving.shed_total")->Inc();
  governor.Tick();
  ASSERT_EQ(governor.knobs().max_queue_depth, 2);

  // Calm ticks relax one step each: depth doubles to rest, then the budget
  // doubles out the top. Bounds must hold at every intermediate step.
  for (int i = 0; i < 20; ++i) {
    governor.Tick();
    GovernorKnobs knobs = governor.knobs();
    EXPECT_GE(knobs.max_queue_depth, governor.bounds().min_queue_depth);
    EXPECT_LE(knobs.max_queue_depth, governor.bounds().max_queue_depth);
    if (knobs.deadline_budget_us != 0) {
      EXPECT_GE(knobs.deadline_budget_us,
                governor.bounds().min_deadline_budget_us);
    }
  }
  GovernorKnobs rest = governor.knobs();
  EXPECT_EQ(rest.max_queue_depth, 16);
  EXPECT_EQ(rest.deadline_budget_us, 0);
  EXPECT_EQ(queue.max_depth(), 16);
}

// --- ModelServer integration ---------------------------------------------

// Drill server with 64 admission slots; `governed` adds an ondemand governor
// that the drills tick manually, one calm tick per relaxation step.
ServerOptions GovernorDrillOptions(bool governed) {
  ServerOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 64;
  if (governed) {
    GovernorOptions& governor = options.governor.emplace();
    governor.interval_us = 0;  // drills tick manually
    governor.decay_ticks = 1;
    governor.bounds.min_queue_depth = 2;
    governor.bounds.min_deadline_budget_us = 2000;
  }
  return options;
}

TEST(ModelServerGovernorTest, PerformancePolicyNeverMovesKnobs) {
  // No governor configured: nothing ticks, nothing is exported, and the
  // knobs stay at their configured values.
  ModelServer server(History(), GovernorDrillOptions(/*governed=*/false));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
  EXPECT_EQ(server.governor(), nullptr);
  server.mutable_metrics()->GetCounter("serving.shed_total")->Inc();
  for (int i = 0; i < 5; ++i) {
    server.TickGovernor();  // a no-op without a governor
    auto got = server.Recommend(i % kUsers, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
  for (const MetricSnapshot& m : server.metrics().Snapshot()) {
    EXPECT_NE(m.name.rfind("serving.governor.", 0), 0u) << m.name;
  }
  // The admission bound stayed at 64 under the recorded shed: a burst of
  // four stalled queries, twice what an ondemand clamp to 2 would admit,
  // is admitted whole.
  const int64_t recorded_sheds = server.stats().shed;
  ScopedFaultSchedule faults({{FaultPoint::kServeQueueStall,
                               {.trigger_at_hit = 1, .max_fires = -1}}});
  std::vector<std::thread> burst;
  for (int c = 0; c < 4; ++c) {
    burst.emplace_back([&server, c] {
      auto got = server.Recommend(c, 5);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
    });
  }
  for (auto& t : burst) t.join();
  EXPECT_EQ(server.stats().shed, recorded_sheds);
}

TEST(ModelServerGovernorTest, KnobGaugesAreExported) {
  ModelServer server(History(), GovernorDrillOptions(/*governed=*/true));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
  server.mutable_metrics()->GetCounter("serving.shed_total")->Inc();
  server.TickGovernor();

  double depth_gauge = -1.0;
  for (const MetricSnapshot& m : server.metrics().Snapshot()) {
    if (m.name == "serving.governor.queue_depth") depth_gauge = m.gauge;
  }
  EXPECT_EQ(depth_gauge, 2.0);
}

// The acceptance drill: under fault-injected overload with a tight client
// deadline, a server with no governor serves every query into its doom
// (miss rate 1.0), while ondemand sheds at admission once pressure is
// visible — sheds are Unavailable, not deadline misses, so its miss rate
// must land strictly below the baseline. Knobs must stay inside bounds.
TEST(ModelServerGovernorTest, OndemandKeepsMissRateBelowStaticBaseline) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;

  auto drill = [](bool governed) {
    ModelServer server(History(), GovernorDrillOptions(governed));
    CLAPF_CHECK_OK(server.PublishModel(RandomModel(1)));
    // Every scoring block stalls 2ms; a 500us budget cannot survive one.
    ScopedFaultSchedule faults({{FaultPoint::kServeSlowBlock,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    QueryOptions options;
    options.deadline = std::chrono::microseconds(500);

    // Prime the control loop: two doomed queries, then one tick. For the
    // governed server the 100% miss rate is pressure and the admission
    // bound clamps to 2 before the burst.
    for (int i = 0; i < 2; ++i) {
      (void)server.Recommend(i, 5, options);
    }
    server.TickGovernor();

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          (void)server.Recommend((c * kPerClient + i) % kUsers, 5, options);
        }
      });
    }
    for (auto& t : clients) t.join();
    server.TickGovernor();

    if (const ServingGovernor* governor = server.governor()) {
      const GovernorKnobs knobs = governor->knobs();
      EXPECT_GE(knobs.max_queue_depth, governor->bounds().min_queue_depth);
      EXPECT_LE(knobs.max_queue_depth, governor->bounds().max_queue_depth);
    }
    return server.stats();
  };

  ServingStatsSnapshot baseline = drill(/*governed=*/false);
  ServingStatsSnapshot adaptive = drill(/*governed=*/true);

  // No governor: nothing sheds (depth 64 >> 4 clients), every served
  // query misses its deadline.
  EXPECT_EQ(baseline.shed, 0);
  EXPECT_EQ(baseline.deadline_exceeded, baseline.queries);

  // Adaptive: the clamped admission bound converts doomed queries into
  // typed sheds, so the miss rate drops strictly below the baseline's 1.0.
  EXPECT_GT(adaptive.shed, 0);
  const double baseline_miss_rate =
      static_cast<double>(baseline.deadline_exceeded) /
      static_cast<double>(baseline.queries);
  const double adaptive_miss_rate =
      static_cast<double>(adaptive.deadline_exceeded) /
      static_cast<double>(adaptive.queries);
  EXPECT_EQ(baseline_miss_rate, 1.0);
  EXPECT_LT(adaptive_miss_rate, baseline_miss_rate);
}

// --- Breaker trips, dumps, and half-open recovery -------------------------

// The breaker drills run on the one-shard (monolithic) server and on three
// shards, where the trip, rollback and probe act on the blamed shard alone.
constexpr int32_t kShardCounts[] = {1, 3};

ServerOptions BreakerDrillOptions(int32_t num_shards) {
  ServerOptions options;
  options.num_shards = num_shards;
  options.num_threads = 2;
  options.max_queue_depth = 8;
  options.breaker.min_samples = 4;
  options.breaker.window = 8;
  options.breaker.error_threshold = 0.5;
  options.breaker.cooldown_queries = 4;
  options.breaker.probe_window = 4;
  return options;
}

// Runs `n` queries that the armed kServeScoreNan fault turns into Internal
// errors (breaker food). All for one user, so at any shard count the same
// shard owns the poisoned top item and takes the blame.
void RunPoisonedQueries(ModelServer* server, int n) {
  for (int i = 0; i < n; ++i) {
    auto got = server->Recommend(0, 5);
    EXPECT_EQ(got.status().code(), StatusCode::kInternal)
        << got.status().ToString();
  }
}

void RunHealthyQueries(ModelServer* server, int n) {
  for (int i = 0; i < n; ++i) {
    auto got = server->Recommend(i % kUsers, 5);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
  }
}

TEST(ModelServerGovernorTest, BreakerTripAutoDumpsFlightRecorder) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dump_path =
        ::testing::TempDir() + "governor_trip_dump.json";
    std::remove(dump_path.c_str());

    ServerOptions options = BreakerDrillOptions(shards);
    options.flight_dump_path = dump_path;
    ModelServer server(History(), options);
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());

    {
      ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                   {.trigger_at_hit = 1, .max_fires = -1}}});
      RunPoisonedQueries(&server, 4);
    }
    EXPECT_EQ(server.stats().breaker_trips, 1);
    EXPECT_EQ(server.version(), 1);  // rolled back

    // The incident black box was written by the trip itself, and it tells the
    // whole story in order: errors, the trip, and the rollback.
    const std::string dump = ReadFile(dump_path);
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"internal-error\""), 4);
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"breaker-trip\""), 1);
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"rollback\""), 1);
    EXPECT_LT(dump.find("\"kind\":\"breaker-trip\""),
              dump.find("\"kind\":\"rollback\""));

    // Replayable: two timestamp-free dumps of the same recorder state are
    // byte-identical.
    const std::string stable_a = ::testing::TempDir() + "governor_dump_a.json";
    const std::string stable_b = ::testing::TempDir() + "governor_dump_b.json";
    FlightDumpOptions stable;
    stable.include_timestamps = false;
    ASSERT_TRUE(server.DumpFlightRecorder(stable_a, stable).ok());
    ASSERT_TRUE(server.DumpFlightRecorder(stable_b, stable).ok());
    EXPECT_EQ(ReadFile(stable_a), ReadFile(stable_b));
    EXPECT_NE(ReadFile(stable_a), dump);  // timestamps were zeroed
  }
}

TEST(ModelServerGovernorTest, HalfOpenProbeReinstatesRecoveredSnapshot) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), BreakerDrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());
    ASSERT_EQ(server.version(), 2);

    {
      // Four poisoned queries trip the breaker; the fault then disarms, so
      // the "bad" snapshot is healthy again by probe time (a transient
      // incident, the case half-open recovery exists for).
      ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                   {.trigger_at_hit = 1, .max_fires = -1}}});
      RunPoisonedQueries(&server, 4);
    }
    EXPECT_EQ(server.stats().breaker_trips, 1);
    EXPECT_EQ(server.version(), 1);

    // Cooldown: four fallback-served queries, the last of which opens the
    // probe and re-admits v2.
    RunHealthyQueries(&server, 4);
    EXPECT_EQ(server.stats().probes, 1);
    EXPECT_EQ(server.version(), 2);

    // Probe window: four clean queries reinstate the snapshot for good.
    RunHealthyQueries(&server, 4);
    EXPECT_EQ(server.stats().probe_recoveries, 1);
    EXPECT_EQ(server.stats().probe_failures, 0);
    EXPECT_EQ(server.version(), 2);

    // Recovery also restored the rollback chain: a fresh trip rolls back to
    // v1 again instead of degrading dark.
    {
      ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                   {.trigger_at_hit = 1, .max_fires = -1}}});
      RunPoisonedQueries(&server, 4);
    }
    EXPECT_EQ(server.stats().breaker_trips, 2);
    EXPECT_EQ(server.version(), 1);
    EXPECT_FALSE(server.degraded());
  }
}

TEST(ModelServerGovernorTest, HalfOpenProbeFailureRevertsToFallback) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), BreakerDrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());

    ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    RunPoisonedQueries(&server, 4);  // trip, roll back to v1
    EXPECT_EQ(server.version(), 1);
    faults.Disarm(FaultPoint::kServeScoreNan);

    RunHealthyQueries(&server, 4);  // cooldown; probe opens on v2
    EXPECT_EQ(server.stats().probes, 1);
    EXPECT_EQ(server.version(), 2);

    // Still poisoned at probe time: the probe window fails and the server
    // reverts to the rollback target without counting a second trip.
    faults.Arm(FaultPoint::kServeScoreNan,
               {.trigger_at_hit = 1, .max_fires = -1});
    RunPoisonedQueries(&server, 4);
    EXPECT_EQ(server.stats().probe_failures, 1);
    EXPECT_EQ(server.stats().probe_recoveries, 0);
    EXPECT_EQ(server.stats().breaker_trips, 1);
    EXPECT_EQ(server.version(), 1);
    faults.Disarm(FaultPoint::kServeScoreNan);

    // The discarded snapshot is gone for good: healthy traffic does not
    // reopen a probe.
    RunHealthyQueries(&server, 12);
    EXPECT_EQ(server.stats().probes, 1);
    EXPECT_EQ(server.version(), 1);

    // The narrative is in the recorder: probe-start then probe-failed.
    FlightDumpOptions stable;
    stable.include_timestamps = false;
    const std::string dump = server.flight_recorder().DumpJson(stable);
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"probe-start\""), 1);
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"probe-failed\""), 1);
    EXPECT_EQ(CountOccurrences(dump, "\"kind\":\"probe-recovered\""), 0);
  }
}

TEST(ModelServerGovernorTest, PublishCancelsPendingProbe) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), BreakerDrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());
    {
      ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                   {.trigger_at_hit = 1, .max_fires = -1}}});
      RunPoisonedQueries(&server, 4);
    }
    EXPECT_EQ(server.version(), 1);

    // The operator ships a fix mid-cooldown: the stashed v2 is superseded and
    // no probe ever opens for it.
    ASSERT_TRUE(server.PublishModel(RandomModel(3)).ok());
    EXPECT_EQ(server.version(), 3);
    RunHealthyQueries(&server, 16);
    EXPECT_EQ(server.stats().probes, 0);
    EXPECT_EQ(server.version(), 3);
  }
}

// --- Concurrency (the Tsan gate for the governor ticker) ------------------

TEST(ModelServerGovernorTest, TickerThreadRacesQueriesPublishesAndReaders) {
  ServerOptions options = GovernorDrillOptions(/*governed=*/true);
  options.governor->interval_us = 200;  // aggressive ticker
  options.slow_query_us = 1;           // exercise the slow-query hook too
  ModelServer server(History(), options);
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

  // The first kStalls queries park 20 ms each in the server's two run
  // slots, keeping the queue visibly deep for the ticker's first ~1000
  // ticks while clients, a publisher, and metric readers all run
  // concurrently; the rest of the 200 queries run unstalled.
  constexpr int64_t kStalls = 24;
  ScopedFaultSchedule faults({{FaultPoint::kServeQueueStall,
                               {.trigger_at_hit = 1, .max_fires = kStalls}}});
  // The ticker's count when the first stall fired and its count last seen
  // before the last one did: while stalls fire, a parked query holds a run
  // slot, so the queue is never empty between the two readings.
  std::atomic<int64_t> ticks_at_first_stall{-1}, ticks_during_stalls{-1};

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int i = 0; i < 3; ++i) {
      (void)server.PublishModel(RandomModel(10 + i));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t fired =
          FaultInjector::Instance().fires(FaultPoint::kServeQueueStall);
      const int64_t ticks = server.governor()->ticks();
      if (fired >= 1 && ticks_at_first_stall.load() < 0) {
        ticks_at_first_stall.store(ticks);
      }
      if (fired >= 1 && fired < kStalls) ticks_during_stalls.store(ticks);
      (void)server.governor()->knobs();
      (void)server.flight_recorder().Snapshot();
      (void)server.metrics().Snapshot();
      (void)server.stats();
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      QueryOptions q;
      q.deadline = std::chrono::milliseconds(50);
      for (int i = 0; i < 50; ++i) {
        (void)server.Recommend((c + i) % kUsers, 5, q);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  reader.join();

  auto stats = server.stats();
  EXPECT_EQ(stats.queries, 200);
  // The ticker ran, also while stalled queries held the queue, and every
  // knob respected its bounds.
  EXPECT_GT(server.governor()->ticks(), 0);
  EXPECT_EQ(FaultInjector::Instance().fires(FaultPoint::kServeQueueStall),
            kStalls);
  EXPECT_GE(ticks_at_first_stall.load(), 0);
  EXPECT_GT(ticks_during_stalls.load(), ticks_at_first_stall.load());
  const GovernorKnobs knobs = server.governor()->knobs();
  const auto& bounds = server.governor()->bounds();
  EXPECT_GE(knobs.max_queue_depth, bounds.min_queue_depth);
  EXPECT_LE(knobs.max_queue_depth, bounds.max_queue_depth);
}

}  // namespace
}  // namespace clapf

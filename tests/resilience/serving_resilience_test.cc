// Serving resilience drills: deadline enforcement, admission-control load
// shedding, canary-gated hot reload with rollback, and the post-publish
// circuit breaker — each failure mode provoked by an injected fault and
// required to surface as a typed Status, never a crash or a garbage ranking,
// on one shard (the monolithic case) and on three.
//
// This suite is the Tsan acceptance gate for the serving layer: the
// concurrent drills (hot swap during queries, multi-client overload) must
// run race-free under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clapf/core/clapf_trainer.h"
#include "clapf/model/model_io.h"
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

Dataset History() { return testing::MakeLearnableDataset(kUsers, kItems, 8, 7); }

// A structurally valid but untrained model: finite factors, AUC ~0.5.
FactorModel RandomModel(uint64_t seed) {
  FactorModel model(kUsers, kItems, 8);
  Rng rng(seed);
  model.InitGaussian(rng);
  return model;
}

// A model actually trained on History() — clears any sane AUC floor.
FactorModel TrainedModel(uint64_t seed) {
  ClapfOptions opts;
  opts.sgd.iterations = 3000;
  opts.sgd.num_factors = 8;
  opts.sgd.seed = seed;
  ClapfTrainer trainer(opts);
  CLAPF_CHECK_OK(trainer.Train(History()));
  return *trainer.model();
}

// Every drill runs on the one-shard (monolithic) server and on three
// shards: one server class, the same contracts at any shard count.
constexpr int32_t kShardCounts[] = {1, 3};

// Default server for drills: tiny pool, canary on but no AUC probe (the
// probe-floor drills opt in explicitly), touchy breaker so trips are cheap
// to provoke.
ServerOptions DrillOptions(int32_t num_shards) {
  ServerOptions options;
  options.num_shards = num_shards;
  options.num_threads = 2;
  options.max_queue_depth = 4;
  options.breaker.min_samples = 4;
  options.breaker.window = 8;
  options.breaker.error_threshold = 0.5;
  return options;
}

TEST(ModelServerTest, ServesPopularityFallbackBeforeFirstPublish) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    EXPECT_TRUE(server.degraded());
    EXPECT_EQ(server.version(), 0);

    auto got = server.Recommend(3, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 5u);
    // Popularity order: scores must be non-increasing.
    for (size_t i = 1; i < got->size(); ++i) {
      EXPECT_GE((*got)[i - 1].score, (*got)[i].score);
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.queries, 1);
    EXPECT_EQ(stats.degraded, 1);
    EXPECT_EQ(stats.ok, 1);
    // No shard has a chain yet, so none was consulted: the per-shard
    // counters stay untouched and every shard version reads 0.
    EXPECT_EQ(server.shard_versions(),
              std::vector<int64_t>(static_cast<size_t>(shards), 0));
    for (const ShardStatsSnapshot& shard : server.shard_stats()) {
      EXPECT_EQ(shard.queries, 0);
      EXPECT_EQ(shard.degraded, 0);
    }
  }
}

TEST(ModelServerTest, PublishThenServe) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    EXPECT_FALSE(server.degraded());
    EXPECT_EQ(server.version(), 1);

    auto got = server.Recommend(0, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 5u);

    // Batch through the server answers every user.
    std::vector<UserId> users = {0, 1, 2, 3};
    auto reply = server.RecommendBatch(users, 3);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->num_complete, users.size());
    EXPECT_FALSE(reply->deadline_exceeded);

    auto stats = server.stats();
    EXPECT_EQ(stats.publishes, 1);
    EXPECT_EQ(stats.ok, 2);
    EXPECT_EQ(stats.degraded, 0);
  }
}

TEST(ModelServerTest, BadUserIdIsClientErrorNotBreakerFood) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    for (int i = 0; i < 8; ++i) {
      auto got = server.Recommend(kUsers + 100, 5);
      EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.client_errors, 8);
    EXPECT_EQ(stats.internal_errors, 0);
    EXPECT_EQ(stats.breaker_trips, 0);  // client mistakes never trip it
    EXPECT_EQ(server.version(), 1);
  }
}

// --- Deadline drills ------------------------------------------------------

TEST(ModelServerTest, DeadlineExpiryIsTypedNotUnbounded) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

    // Every scoring block stalls 2ms; a 50us budget cannot survive even one.
    ScopedFaultSchedule faults({{FaultPoint::kServeSlowBlock,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    QueryOptions options;
    options.deadline = std::chrono::microseconds(50);
    auto got = server.Recommend(0, 5, options);
    EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
        << got.status().ToString();
    EXPECT_EQ(server.stats().deadline_exceeded, 1);

    // Disarmed, the same query with the same budget-bearing options succeeds:
    // the deadline machinery itself costs far less than the budget.
    faults.Disarm(FaultPoint::kServeSlowBlock);
    options.deadline = std::chrono::seconds(10);
    auto retry = server.Recommend(0, 5, options);
    EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  }
}

TEST(ModelServerTest, ExpiredBatchReturnsCompletedPrefixFlagged) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

    ScopedFaultSchedule faults({{FaultPoint::kServeSlowBlock,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    std::vector<UserId> users(static_cast<size_t>(kUsers));
    for (int32_t u = 0; u < kUsers; ++u) users[static_cast<size_t>(u)] = u;

    QueryOptions options;
    options.deadline = std::chrono::microseconds(100);
    auto reply = server.RecommendBatch(users, 5, options);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply->deadline_exceeded);
    EXPECT_LT(reply->num_complete, users.size());

    // Flags and payloads agree: finished users carry results, unfinished
    // users carry an empty list — never a half-scored ranking.
    size_t flagged = 0;
    for (size_t i = 0; i < users.size(); ++i) {
      if (reply->complete[i] != 0) {
        ++flagged;
        EXPECT_EQ(reply->results[i].size(), 5u);
      } else {
        EXPECT_TRUE(reply->results[i].empty());
      }
    }
    EXPECT_EQ(flagged, reply->num_complete);
    EXPECT_EQ(server.stats().deadline_exceeded, 1);
  }
}

// --- Overload drill -------------------------------------------------------

TEST(ModelServerTest, OverloadShedsWithTypedErrorsNotCrash) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options = DrillOptions(shards);
    options.num_threads = 2;
    options.max_queue_depth = 2;
    ModelServer server(History(), options);
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

    // Every admitted task parks 20ms before serving, so a burst of clients
    // piles up against the depth-2 admission bound.
    ScopedFaultSchedule faults({{FaultPoint::kServeQueueStall,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});

    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 4;
    std::atomic<int> ok{0}, shed{0}, other{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, &ok, &shed, &other, c] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          auto got = server.Recommend(c, 5);
          if (got.ok()) {
            ok.fetch_add(1);
          } else if (got.status().code() == StatusCode::kUnavailable) {
            shed.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();

    // Every request resolved to success or a typed shed — nothing else.
    EXPECT_EQ(ok.load() + shed.load(), kClients * kRequestsPerClient);
    EXPECT_EQ(other.load(), 0);
    EXPECT_GT(ok.load(), 0);    // the server kept serving under overload
    EXPECT_GT(shed.load(), 0);  // and the bound actually shed something
    auto stats = server.stats();
    EXPECT_EQ(stats.shed, shed.load());
    EXPECT_EQ(stats.ok, ok.load());
  }
}

// --- Hot reload gate drills ----------------------------------------------

TEST(ModelServerTest, CorruptCandidateRejectedPrePublish) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_EQ(server.version(), 1);

    // The injected fault poisons the candidate's factors in flight; the
    // canary's finite scan must catch it before the swap.
    {
      ScopedFaultSchedule faults({{FaultPoint::kServeCorruptCandidate, {}}});
      Status published = server.PublishModel(RandomModel(2));
      EXPECT_EQ(published.code(), StatusCode::kCorruption)
          << published.ToString();
    }

    // The rejection left v1 serving, untouched.
    EXPECT_EQ(server.version(), 1);
    EXPECT_FALSE(server.degraded());
    auto got = server.Recommend(0, 5);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(server.stats().canary_rejects, 1);

    // With the fault gone the same candidate publishes cleanly.
    EXPECT_TRUE(server.PublishModel(RandomModel(2)).ok());
    EXPECT_EQ(server.version(), 2);
  }
}

TEST(ModelServerTest, CorruptCandidateFileRejectedByCrc) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

    const std::string path =
        ::testing::TempDir() + "serving_candidate_corrupt.clapf";
    ASSERT_TRUE(SaveModel(RandomModel(2), path).ok());
    {
      // Flip one payload byte; the wire format's CRC must refuse the load.
      std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(-9, std::ios::end);
      char byte = 0;
      file.read(&byte, 1);
      file.seekp(-9, std::ios::end);
      byte = static_cast<char>(byte ^ 0x40);
      file.write(&byte, 1);
    }
    Status published = server.PublishModel(path);
    EXPECT_FALSE(published.ok());
    EXPECT_EQ(server.version(), 1);  // prior snapshot kept serving
    EXPECT_EQ(server.stats().canary_rejects, 1);
  }
}

TEST(ModelServerTest, AucFloorRejectsUntrainedModelAcceptsTrained) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options = DrillOptions(shards);
    options.canary.min_auc = 0.58;
    ModelServer server(History(), options);

    // A random model ranks the probe at ~0.5 AUC: below the floor, rejected.
    Status rejected = server.PublishModel(RandomModel(1));
    EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition)
        << rejected.ToString();
    EXPECT_TRUE(server.degraded());
    EXPECT_EQ(server.stats().canary_rejects, 1);

    // A genuinely trained model clears it.
    Status accepted = server.PublishModel(TrainedModel(11));
    EXPECT_TRUE(accepted.ok()) << accepted.ToString();
    EXPECT_EQ(server.version(), 1);
  }
}

TEST(ModelServerTest, DimensionMismatchIsRejected) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    FactorModel wrong(kUsers + 1, kItems, 8);
    EXPECT_EQ(server.PublishModel(std::move(wrong)).code(),
              StatusCode::kInvalidArgument);
  }
}

// --- Circuit breaker drills -----------------------------------------------

TEST(ModelServerTest, BreakerTripRollsBackThenRecovers) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
    ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());
    ASSERT_EQ(server.version(), 2);

    // Every serve poisons a score; the serve-time finite check turns each
    // into Internal, and with a 100% error rate the breaker trips as soon as
    // the window holds min_samples.
    ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    int internal_seen = 0;
    for (int i = 0; i < 16 && server.stats().breaker_trips == 0; ++i) {
      auto got = server.Recommend(0, 5);
      if (got.status().code() == StatusCode::kInternal) ++internal_seen;
    }
    ASSERT_GE(internal_seen, 1);
    auto stats = server.stats();
    ASSERT_GE(stats.breaker_trips, 1);
    EXPECT_GE(stats.rollbacks, 1);
    EXPECT_EQ(server.version(), 1);  // rolled back to the previous snapshot
    EXPECT_FALSE(server.degraded());

    // Fault cleared: the rolled-back snapshot serves cleanly again.
    faults.Disarm(FaultPoint::kServeScoreNan);
    auto got = server.Recommend(0, 5);
    EXPECT_TRUE(got.ok()) << got.status().ToString();

    // And a fresh publish moves forward normally.
    ASSERT_TRUE(server.PublishModel(RandomModel(3)).ok());
    EXPECT_EQ(server.version(), 3);
  }
}

TEST(ModelServerTest, BreakerDegradesWhenNoRollbackTargetExists) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(History(), DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1, no previous

    ScopedFaultSchedule faults({{FaultPoint::kServeScoreNan,
                                 {.trigger_at_hit = 1, .max_fires = -1}}});
    for (int i = 0; i < 16 && server.stats().breaker_trips == 0; ++i) {
      (void)server.Recommend(0, 5);
    }
    ASSERT_GE(server.stats().breaker_trips, 1);
    EXPECT_EQ(server.stats().rollbacks, 0);  // nothing to roll back to
    EXPECT_TRUE(server.degraded());
    EXPECT_EQ(server.version(), 0);

    // The dark shard answers from popularity instead of going dark. With
    // one shard that is the whole answer: it never touches the model, so it
    // is immune to the score fault. With more, the healthy shards still
    // serve the model, so the fault is cleared first.
    if (shards > 1) faults.Disarm(FaultPoint::kServeScoreNan);
    auto got = server.Recommend(0, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), 5u);
  }
}

// --- Concurrency drill (the Tsan acceptance case) -------------------------

TEST(ModelServerTest, HotSwapDuringConcurrentQueriesIsRaceFree) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options = DrillOptions(shards);
    options.max_queue_depth = 64;  // no shedding: this drill is about races
    ModelServer server(History(), options);
    ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

    constexpr int kPublishes = 8;
    std::atomic<bool> stop{false};
    std::atomic<int> served{0};
    std::atomic<int> failed{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&server, &stop, &served, &failed, t] {
        std::vector<UserId> users = {0, 1, 2};
        while (!stop.load(std::memory_order_relaxed)) {
          auto one = server.Recommend((t * 7) % kUsers, 5);
          auto batch = server.RecommendBatch(users, 3);
          if (one.ok() && batch.ok()) {
            served.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
        }
      });
    }

    // The writer hot-swaps through the full gate while readers hammer away.
    for (int v = 2; v <= 1 + kPublishes; ++v) {
      ASSERT_TRUE(
          server.PublishModel(RandomModel(static_cast<uint64_t>(v))).ok());
    }
    // Let the readers overlap the final snapshot too, then stop them.
    while (served.load() < 5) std::this_thread::yield();
    stop.store(true);
    for (auto& t : readers) t.join();

    EXPECT_EQ(failed.load(), 0);
    EXPECT_GT(served.load(), 0);
    EXPECT_EQ(server.version(), 1 + kPublishes);
    EXPECT_EQ(server.stats().publishes, 1 + kPublishes);
    EXPECT_EQ(server.stats().internal_errors, 0);
  }
}

}  // namespace
}  // namespace clapf

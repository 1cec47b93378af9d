// Sharded scatter-gather serving drills. The load-bearing property is
// BIT-IDENTITY: the server must answer every query exactly like a plain
// reference that shares no server or retrieval code — same scores, same
// order, same smaller-id tie-break — for any shard count, on both the
// packed and the exact kernels. On top of that, the per-shard failure
// domains: targeted hot reload, per-shard canary gates, shard-attributed
// breaker trips and rollbacks, and deterministic stats aggregation.
//
// This suite is the Tsan acceptance gate for the sharded serving layer: the
// hot-reload-under-load drill publishes into single shards while query
// threads scatter across all of them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "clapf/model/packed_snapshot.h"
#include "clapf/model/score_kernel.h"
#include "clapf/serving/model_shard.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/serving/shard_map.h"
#include "clapf/util/logging.h"
#include "clapf/util/random.h"
#include "testing/fault_schedule.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

using clapf::testing::ScopedFaultSchedule;

constexpr int32_t kUsers = 20;
constexpr int32_t kItems = 56;  // 7 packed blocks: uneven across 2/3/5 shards

Dataset History() {
  return testing::MakeLearnableDataset(kUsers, kItems, 9, 11);
}

// A structurally valid but untrained model — finite factors, deterministic.
FactorModel RandomModel(uint64_t seed) {
  FactorModel model(kUsers, kItems, 8);
  Rng rng(seed);
  model.InitGaussian(rng);
  return model;
}

// Tie-heavy exact model: every score is one of three values, so almost every
// adjacent pair in a ranking is a tie the smaller-id rule must break.
FactorModel TieModel() {
  std::vector<std::vector<double>> scores(
      kUsers, std::vector<double>(kItems, 0.0));
  for (int32_t u = 0; u < kUsers; ++u) {
    for (int32_t i = 0; i < kItems; ++i) {
      scores[static_cast<size_t>(u)][static_cast<size_t>(i)] =
          static_cast<double>((u + i) % 3);
    }
  }
  return testing::MakeExactModel(scores);
}

ServerOptions DrillOptions(int32_t num_shards) {
  ServerOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 16;
  options.num_shards = num_shards;
  options.scatter_threads = 2;
  options.breaker.min_samples = 4;
  options.breaker.window = 8;
  options.breaker.error_threshold = 0.5;
  return options;
}

// The reference answer, sharing no server or retrieval code: history and
// options.exclude excluded, a cold user ranked by popularity, then the
// exact path's plain double scan + SelectTopK or the packed path's one
// ScoreBlocksTopK pass over the full-catalog PackedSnapshot, then the
// min_score cut.
std::vector<ScoredItem> Reference(const FactorModel& model,
                                  const Dataset& history, UserId u, size_t k,
                                  const QueryOptions& options, bool packed) {
  std::vector<bool> excluded(static_cast<size_t>(model.num_items()), false);
  for (ItemId i : history.ItemsOf(u)) excluded[static_cast<size_t>(i)] = true;
  for (ItemId i : options.exclude) {
    if (i >= 0 && i < model.num_items()) {
      excluded[static_cast<size_t>(i)] = true;
    }
  }
  k = std::min(k, static_cast<size_t>(model.num_items()));
  std::vector<ScoredItem> top;
  if (history.NumItemsOf(u) == 0) {
    const std::vector<int64_t> counts = history.ItemPopularity();
    top = SelectTopK(std::vector<double>(counts.begin(), counts.end()),
                     excluded, k);
  } else if (packed) {
    TopKAccumulator acc(k);
    ScoreBlocksTopK(PackedSnapshot::Build(model), u, 0, model.num_items(),
                    &excluded, &acc);
    top = acc.Take();
  } else {
    std::vector<double> scores;
    model.ScoreAllItems(u, &scores);
    top = SelectTopK(scores, excluded, k);
  }
  if (options.min_score) {
    while (!top.empty() && top.back().score < *options.min_score) {
      top.pop_back();
    }
  }
  return top;
}

void ExpectSameRanking(const std::vector<ScoredItem>& got,
                       const std::vector<ScoredItem>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item)
        << context << " diverges at rank " << i;
    // EXPECT_EQ, not NEAR: sharded serving promises bit-identical scores.
    EXPECT_EQ(got[i].score, want[i].score)
        << context << " score differs at rank " << i;
  }
}

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, AlignsBoundariesToPackedBlocksAndCoversCatalog) {
  ShardMap map = ShardMap::Create(kItems, 3);
  ASSERT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.begin(0), 0);
  EXPECT_EQ(map.end(map.num_shards() - 1), kItems);
  for (int32_t s = 0; s < map.num_shards(); ++s) {
    EXPECT_GT(map.size(s), 0);
    if (s + 1 < map.num_shards()) {
      EXPECT_EQ(map.end(s), map.begin(s + 1));    // contiguous
      EXPECT_EQ(map.end(s) % 8, 0) << map.ToString();  // block-aligned
    }
  }
  for (ItemId i = 0; i < kItems; ++i) {
    const int32_t s = map.ShardOfItem(i);
    EXPECT_GE(i, map.begin(s));
    EXPECT_LT(i, map.end(s));
  }
}

TEST(ShardMapTest, ClampsShardCountToBlockCount) {
  // 10 items = 2 packed blocks: asking for 50 shards yields 2.
  EXPECT_EQ(ShardMap::Create(10, 50).num_shards(), 2);
  EXPECT_EQ(ShardMap::Create(10, 0).num_shards(), 1);
  ShardMap empty = ShardMap::Create(0, 4);
  EXPECT_EQ(empty.num_shards(), 1);
  EXPECT_EQ(empty.num_items(), 0);
}

// ---------------------------------------------------------------------------
// Unified publish API

TEST(ShardedServerTest, PublishRequestRoutingIsValidated) {
  ModelServer server(History(), DrillOptions(3));
  EXPECT_EQ(server
                .PublishModel(PublishRequest(RandomModel(1)).WithShard(7))
                .code(),
            StatusCode::kInvalidArgument);
  // Both a model and a path, or neither, is a malformed request.
  PublishRequest both(RandomModel(1));
  both.path = "/tmp/nonexistent.clapf";
  EXPECT_EQ(server.PublishModel(std::move(both)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.PublishModel(PublishRequest()).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Cross-shard merge determinism: every shard count must answer bit-for-bit
// like the plain reference, on both kernels, including the smaller-id
// tie-break.

TEST(ShardedDeterminismTest, PackedShardedMatchesMonolithicBitForBit) {
  Dataset history = History();
  const FactorModel model = RandomModel(3);
  for (int32_t shards : {1, 2, 3, 5}) {
    ModelServer server(history, DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(model).ok());
    // k = kItems is past every shard's size: each shard returns all its
    // servable items, whatever order the scatter finishes in.
    for (size_t k : {size_t{10}, static_cast<size_t>(kItems)}) {
      for (UserId u = 0; u < kUsers; ++u) {
        auto got = server.Recommend(u, k);
        ASSERT_TRUE(got.ok());
        ExpectSameRanking(*got, Reference(model, history, u, k, {}, true),
                          "packed shards=" + std::to_string(shards) +
                              " k=" + std::to_string(k) +
                              " user=" + std::to_string(u));
      }
    }
  }
}

TEST(ShardedDeterminismTest, ExactShardedMatchesMonolithicBitForBit) {
  Dataset history = History();
  const FactorModel model = RandomModel(5);
  for (int32_t shards : {1, 2, 3, 5}) {
    ServerOptions exact = DrillOptions(shards);
    exact.packed = false;
    ModelServer server(history, exact);
    ASSERT_TRUE(server.PublishModel(model).ok());
    for (UserId u = 0; u < kUsers; ++u) {
      auto got = server.Recommend(u, 12);
      ASSERT_TRUE(got.ok());
      ExpectSameRanking(*got, Reference(model, history, u, 12, {}, false),
                        "exact shards=" + std::to_string(shards) +
                            " user=" + std::to_string(u));
    }
  }
}

TEST(ShardedDeterminismTest, TieBreakIsSmallerIdAcrossShardBoundaries) {
  Dataset history = History();
  const FactorModel model = TieModel();
  for (int32_t shards : {1, 3, 5}) {
    ModelServer server(history, DrillOptions(shards));
    ASSERT_TRUE(server.PublishModel(model).ok());
    for (UserId u = 0; u < kUsers; ++u) {
      auto got = server.Recommend(u, kItems);
      ASSERT_TRUE(got.ok());
      ExpectSameRanking(*got, Reference(model, history, u, kItems, {}, true),
                        "ties shards=" + std::to_string(shards) +
                            " user=" + std::to_string(u));
      // The merged ranking itself must break ties by ascending item id even
      // where the tied items live in different shards.
      for (size_t i = 1; i < got->size(); ++i) {
        if ((*got)[i - 1].score == (*got)[i].score) {
          EXPECT_LT((*got)[i - 1].item, (*got)[i].item);
        }
      }
    }
  }
}

TEST(ShardedDeterminismTest, ExclusionsMinScoreAndColdStartMatchMonolithic) {
  Dataset history = History();
  const FactorModel model = RandomModel(7);
  ModelServer server(history, DrillOptions(3));
  ASSERT_TRUE(server.PublishModel(model).ok());

  QueryOptions options;
  options.exclude = {0, 9, 23, 55, 999, -4};  // spans shards; bad ids ignored
  options.min_score = 0.0;
  for (UserId u = 0; u < kUsers; ++u) {
    auto got = server.Recommend(u, 10, options);
    ASSERT_TRUE(got.ok());
    ExpectSameRanking(*got, Reference(model, history, u, 10, options, true),
                      "filtered user=" + std::to_string(u));
  }

  // Batch surface, same contract.
  std::vector<UserId> users = {0, 3, 7, 12};
  auto got_batch = server.RecommendBatch(users, 8);
  ASSERT_TRUE(got_batch.ok());
  ASSERT_EQ(got_batch->num_complete, users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    ExpectSameRanking(got_batch->results[i],
                      Reference(model, history, users[i], 8, {}, true),
                      "batch user=" + std::to_string(users[i]));
  }
}

TEST(ShardedDeterminismTest, ColdStartIsAGlobalDecision) {
  // User 2 owns no interactions: globally cold, so it must get the
  // popularity ranking — not a per-shard mix where warm shards answer from
  // the model. Every warm user must be served by the model in EVERY shard
  // even where that user has no local history.
  std::vector<std::pair<UserId, ItemId>> pairs;
  for (ItemId i = 0; i < 8; ++i) pairs.push_back({0, i});  // shard 0 only
  for (ItemId i = 1; i < 6; ++i) pairs.push_back({1, i});  // shard 0 only
  Dataset history = testing::MakeDataset(3, kItems, pairs);
  ModelServer server(history, DrillOptions(3));
  FactorModel model(3, kItems, 4);
  Rng rng(9);
  model.InitGaussian(rng);
  ASSERT_TRUE(server.PublishModel(model).ok());
  for (UserId u = 0; u < 3; ++u) {
    auto got = server.Recommend(u, 10);
    ASSERT_TRUE(got.ok());
    ExpectSameRanking(*got, Reference(model, history, u, 10, {}, true),
                      "cold drill user=" + std::to_string(u));
  }
}

TEST(ShardedDeterminismTest, ShardSmallerThanKStaysOffTheBar) {
  // A shard holding fewer than k items fills its local heap without
  // bounding the global k-th best. Were it to raise the cross-shard bar,
  // whichever shards scored after it would reject items the merged answer
  // needs, so a k past the shard size would lose items depending on the
  // scatter order.
  // User 0's one interaction lies outside shard 1, so all of shard 1's
  // items are servable and its local heap fills.
  Dataset history = testing::MakeDataset(kUsers, kItems, {{0, 0}});
  const ShardMap map = ShardMap::Create(kItems, 3);
  ASSERT_GT(map.begin(1), 0);
  const std::vector<int64_t> counts = history.ItemPopularity();
  const std::vector<double> popularity(counts.begin(), counts.end());
  ModelShard shard(1, map.begin(1), map.end(1), history, popularity);
  auto slice = shard.BuildSlice(RandomModel(13), /*packed=*/true,
                                /*verify_integrity=*/true, 0, "test");
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();

  ThresholdBroadcast small_shard;
  auto all = shard.ScoreTopK(**slice, 0, kItems, {}, std::nullopt,
                             &small_shard);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(map.size(1)));
  EXPECT_EQ(small_shard.Get(), -std::numeric_limits<double>::infinity());

  // A shard holding at least k items does bound it.
  ThresholdBroadcast large_shard;
  auto top = shard.ScoreTopK(**slice, 0, 3, {}, std::nullopt, &large_shard);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  EXPECT_EQ(large_shard.Get(), top->back().score);
}

// ---------------------------------------------------------------------------
// Deadlines

TEST(ShardedServerTest, BatchDeadlineReturnsCompletedPrefix) {
  ModelServer server(History(), DrillOptions(3));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
  // Every scoring block stalls 2ms; with a 1ms budget the batch cannot
  // finish, and the reply must carry the completed prefix, not an error.
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeSlowBlock, {.trigger_at_hit = 1, .max_fires = -1}}});
  std::vector<UserId> users = {0, 1, 2, 3, 4, 5, 6, 7};
  QueryOptions options;
  options.deadline = std::chrono::microseconds(1000);
  auto reply = server.RecommendBatch(users, 5, options);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->deadline_exceeded);
  EXPECT_LT(reply->num_complete, users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    if (!reply->complete[i]) {
      EXPECT_TRUE(reply->results[i].empty());
    }
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  // The expiry is attributed to the shard whose scan hit the wall.
  int64_t attributed = 0;
  for (const auto& shard : server.shard_stats()) {
    attributed += shard.deadline_exceeded;
  }
  EXPECT_EQ(attributed, 1);
}

// ---------------------------------------------------------------------------
// Per-shard hot reload

TEST(ShardedServerTest, TargetedPublishReloadsOnlyThatShard) {
  Dataset history = History();
  ServerOptions options = DrillOptions(3);
  options.packed = false;  // exact doubles make the hybrid check trivial
  ModelServer server(history, options);
  FactorModel a = RandomModel(21);
  FactorModel b = RandomModel(22);
  ASSERT_TRUE(server.PublishModel(a).ok());
  ASSERT_TRUE(
      server.PublishModel(PublishRequest(b).WithShard(1)).ok());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 2, 1}));
  EXPECT_FALSE(server.degraded());

  // The served catalog is now a stitch: shard 1's items score under model b,
  // the rest under model a. Verify against a brute-force stitched ranking.
  const ShardMap& map = server.shard_map();
  for (UserId u = 0; u < kUsers; ++u) {
    std::vector<bool> seen(static_cast<size_t>(kItems), false);
    for (ItemId i : history.ItemsOf(u)) seen[static_cast<size_t>(i)] = true;
    std::vector<ScoredItem> expected;
    for (ItemId i = 0; i < kItems; ++i) {
      if (seen[static_cast<size_t>(i)]) continue;
      const FactorModel& src = map.ShardOfItem(i) == 1 ? b : a;
      expected.push_back({i, src.Score(u, i)});
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ScoredItem& lhs, const ScoredItem& rhs) {
                       if (lhs.score != rhs.score) return lhs.score > rhs.score;
                       return lhs.item < rhs.item;
                     });
    expected.resize(std::min<size_t>(expected.size(), 10));
    auto got = server.Recommend(u, 10);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRanking(*got, expected, "stitched user=" + std::to_string(u));
  }

  EXPECT_EQ(server.shard_stats()[0].publishes, 1);
  EXPECT_EQ(server.shard_stats()[1].publishes, 2);
  EXPECT_EQ(server.shard_stats()[2].publishes, 1);
}

TEST(ShardedServerTest, PerShardCanaryRejectsOnlyTheCorruptSlice) {
  ModelServer server(History(), DrillOptions(3));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

  // Poison one item factor owned by shard 1: shard 1's gate must refuse the
  // slice while shard 0's gate (whose slice excludes that item) clears it.
  FactorModel poisoned = RandomModel(2);
  const ItemId victim = server.shard_map().begin(1);
  poisoned.mutable_item_factor_data()[static_cast<size_t>(victim) *
                                      poisoned.num_factors()] =
      std::numeric_limits<double>::quiet_NaN();

  Status refused =
      server.PublishModel(PublishRequest(poisoned).WithShard(1));
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 1, 1}));
  EXPECT_TRUE(
      server.PublishModel(PublishRequest(poisoned).WithShard(0)).ok());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{2, 1, 1}));

  auto stats = server.stats();
  EXPECT_EQ(stats.canary_rejects, 1);
  EXPECT_EQ(server.shard_stats()[1].canary_rejects, 1);
  EXPECT_EQ(server.shard_stats()[0].canary_rejects, 0);
  // The reject is visible in shard 1's scoped flight stream, not shard 2's.
  bool shard1_saw_reject = false;
  for (const FlightEvent& e : server.shard_flight_recorder(1).Snapshot()) {
    if (e.kind == FlightEventKind::kCanaryReject) shard1_saw_reject = true;
  }
  EXPECT_TRUE(shard1_saw_reject);
  for (const FlightEvent& e : server.shard_flight_recorder(2).Snapshot()) {
    EXPECT_NE(e.kind, FlightEventKind::kCanaryReject);
  }
}

TEST(ShardedServerTest, PartiallyPublishedTenantServesHealthyShardsFromModel) {
  // A fresh server published into shard 0 only: shard 0 answers from the
  // model, shards 1-2 from their popularity slices — degraded but alive.
  ModelServer server(History(), DrillOptions(3));
  ASSERT_TRUE(
      server.PublishModel(PublishRequest(RandomModel(1)).WithShard(0)).ok());
  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.shard_versions(), (std::vector<int64_t>{1, 0, 0}));
  auto got = server.Recommend(0, 10);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), 10u);
  const std::vector<ShardStatsSnapshot> shards = server.shard_stats();
  EXPECT_GT(shards[1].degraded + shards[2].degraded, 0);
  EXPECT_EQ(shards[0].degraded, 0);
}

// ---------------------------------------------------------------------------
// Shard-attributed breaker

TEST(ShardedServerTest, BreakerTripsAndRollsBackOnlyTheBlamedShard) {
  ModelServer server(History(), DrillOptions(3));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1
  ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());  // v2, rollback to v1

  // Every query's merged top score goes NaN; the same user always blames the
  // same shard (the one owning their deterministic top item).
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeScoreNan, {.trigger_at_hit = 1, .max_fires = -1}}});
  int32_t blamed = -1;
  for (int i = 0; i < 4; ++i) {
    auto got = server.Recommend(0, 5);
    ASSERT_EQ(got.status().code(), StatusCode::kInternal);
  }
  faults.Disarm(FaultPoint::kServeScoreNan);

  auto stats = server.stats();
  EXPECT_EQ(stats.internal_errors, 4);
  EXPECT_EQ(stats.breaker_trips, 1);
  EXPECT_EQ(stats.rollbacks, 1);
  for (const auto& shard : server.shard_stats()) {
    if (shard.breaker_trips > 0) {
      ASSERT_EQ(blamed, -1) << "two shards tripped";
      blamed = shard.shard;
      EXPECT_EQ(shard.internal_errors, 4);
      EXPECT_EQ(shard.rollbacks, 1);
    } else {
      EXPECT_EQ(shard.internal_errors, 0);
      EXPECT_EQ(shard.rollbacks, 0);
    }
  }
  ASSERT_NE(blamed, -1);

  // Only the blamed shard rolled back to v1; the others still serve v2.
  std::vector<int64_t> versions = server.shard_versions();
  for (int32_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(versions[static_cast<size_t>(s)], s == blamed ? 1 : 2);
  }
  EXPECT_FALSE(server.degraded());
  // And with the fault gone the server answers cleanly again.
  auto recovered = server.Recommend(0, 5);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

TEST(ShardedServerTest, BreakerDegradesShardWithoutRollbackTarget) {
  ModelServer server(History(), DrillOptions(2));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1, no previous
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeScoreNan, {.trigger_at_hit = 1, .max_fires = -1}}});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.Recommend(0, 5).status().code(),
              StatusCode::kInternal);
  }
  faults.Disarm(FaultPoint::kServeScoreNan);
  // One shard went dark (no previous slice → popularity); the server is
  // degraded but queries still answer, with the healthy shard on the model.
  EXPECT_TRUE(server.degraded());
  auto got = server.Recommend(0, 5);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  auto stats = server.stats();
  EXPECT_EQ(stats.breaker_trips, 1);
  EXPECT_EQ(stats.rollbacks, 0);
}

// ---------------------------------------------------------------------------
// Deterministic stats aggregation

TEST(ShardedServerTest, StatsSnapshotRendersDeterministically) {
  ModelServer server(History(), DrillOptions(3));
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());
  for (UserId u = 0; u < 6; ++u) {
    ASSERT_TRUE(server.Recommend(u, 5).ok());
  }
  std::vector<ShardStatsSnapshot> a = server.shard_stats();
  std::vector<ShardStatsSnapshot> b = server.shard_stats();
  EXPECT_EQ(server.stats().ToString(), server.stats().ToString());
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].ToString(), b[s].ToString());
    EXPECT_EQ(a[s].shard, static_cast<int32_t>(s));  // ascending ids
    EXPECT_EQ(a[s].queries, 6);  // broadcast: every shard consulted
  }
  // Each shard renders one line led by its id.
  EXPECT_NE(server.stats().ToString().find("queries=6"), std::string::npos);
  EXPECT_EQ(a[0].ToString().rfind("shard=0", 0), 0u);
  EXPECT_EQ(a[2].ToString().rfind("shard=2", 0), 0u);
}

// ---------------------------------------------------------------------------
// Hot reload under load: the Tsan drill. Query threads scatter across every
// shard while a publisher hot-swaps single shards; every query must come
// back typed (ok or shed), the server must never crash or serve garbage,
// and under -DCMAKE_CXX_FLAGS=-fsanitize=thread the interleavings must be
// race-free.

TEST(ShardedServerTest, PerShardHotReloadUnderLoadStaysConsistent) {
  ServerOptions options = DrillOptions(3);
  options.max_queue_depth = 32;
  ModelServer server(History(), options);
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> ok{0}, shed{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&server, &stop, &ok, &shed, &unexpected, c] {
      UserId u = c;
      while (!stop.load(std::memory_order_relaxed)) {
        auto got = server.Recommend(u, 5);
        if (got.ok()) {
          ok.fetch_add(1);
          // A consistent cut never serves a half-published catalog: scores
          // are finite and the ranking is sorted with the id tie-break.
          for (size_t i = 1; i < got->size(); ++i) {
            const ScoredItem& prev = (*got)[i - 1];
            const ScoredItem& cur = (*got)[i];
            if (prev.score < cur.score ||
                (prev.score == cur.score && prev.item >= cur.item)) {
              unexpected.fetch_add(1);
            }
          }
        } else if (got.status().code() == StatusCode::kUnavailable) {
          shed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
        u = (u + 3) % kUsers;
      }
    });
  }

  // 30 targeted publishes, round-robin across shards, alternating models.
  for (int p = 0; p < 30; ++p) {
    FactorModel next = RandomModel(static_cast<uint64_t>(100 + (p % 2)));
    ASSERT_TRUE(server
                    .PublishModel(PublishRequest(std::move(next))
                                      .WithShard(p % server.num_shards()))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_FALSE(server.degraded());
  // 1 all-shard + 30 targeted publishes all cleared their gates.
  EXPECT_EQ(server.stats().publishes, 31);
  std::vector<int64_t> versions = server.shard_versions();
  for (int64_t v : versions) EXPECT_GT(v, 0);
}

// ---------------------------------------------------------------------------
// Per-shard half-open recovery: a tripped shard's slice is kept aside, and
// after a cooldown it is re-admitted for a probe window scoped to that
// shard's failure domain alone — the other shards never notice.

ServerOptions HalfOpenOptions() {
  ServerOptions options = DrillOptions(3);
  options.breaker.cooldown_queries = 4;
  options.breaker.probe_window = 4;
  return options;
}

// Trips one shard, then counts events by kind in its flight recorder.
int CountShardEvents(const ModelServer& server, int32_t shard,
                     FlightEventKind kind) {
  int n = 0;
  for (const FlightEvent& e :
       server.shard_flight_recorder(shard).Snapshot()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// Drives the breaker to a trip on whatever shard the NaN fault blames;
// returns that shard. On exit the blamed shard serves v1, the rest v2.
int32_t TripOneShard(ModelServer* server) {
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeScoreNan, {.trigger_at_hit = 1, .max_fires = -1}}});
  for (int i = 0; i < 4; ++i) {
    auto got = server->Recommend(0, 5);
    EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  }
  faults.Disarm(FaultPoint::kServeScoreNan);
  int32_t blamed = -1;
  for (const auto& shard : server->shard_stats()) {
    if (shard.breaker_trips > 0) blamed = shard.shard;
  }
  EXPECT_NE(blamed, -1) << "no shard tripped";
  return blamed;
}

TEST(ShardedHalfOpenTest, CooldownProbeReinstatesTheHealthySlice) {
  ModelServer server(History(), HalfOpenOptions());
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1
  ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());  // v2
  const int32_t blamed = TripOneShard(&server);
  EXPECT_EQ(server.shard_versions()[static_cast<size_t>(blamed)], 1);

  // Four clean queries serve out the cooldown on the fallback, then four
  // more fill the probe window against the re-admitted slice. The fault is
  // gone (it was a transient), so the probe passes and v2 is reinstated —
  // with no republish, and without touching the other shards.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server.Recommend(0, 5).ok()) << "clean query " << i;
  }
  std::vector<int64_t> versions = server.shard_versions();
  for (int32_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(versions[static_cast<size_t>(s)], 2) << "shard " << s;
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.probes, 1);
  EXPECT_EQ(stats.probe_recoveries, 1);
  EXPECT_EQ(stats.probe_failures, 0);
  for (const auto& shard : server.shard_stats()) {
    if (shard.shard == blamed) {
      EXPECT_EQ(shard.probes, 1);
      EXPECT_EQ(shard.probe_recoveries, 1);
    } else {
      EXPECT_EQ(shard.probes, 0);
    }
  }
  EXPECT_EQ(CountShardEvents(server, blamed, FlightEventKind::kProbeStart),
            1);
  EXPECT_EQ(
      CountShardEvents(server, blamed, FlightEventKind::kProbeRecovered), 1);

  // The reinstated shard is a full citizen again: a later trip rolls it
  // back to the restored previous slice, not into degraded mode.
  const int32_t again = TripOneShard(&server);
  EXPECT_EQ(again, blamed);
  EXPECT_EQ(server.shard_versions()[static_cast<size_t>(blamed)], 1);
  EXPECT_FALSE(server.degraded());
}

TEST(ShardedHalfOpenTest, FailedProbeRevertsAndDiscardsTheSlice) {
  ModelServer server(History(), HalfOpenOptions());
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1
  ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());  // v2
  const int32_t blamed = TripOneShard(&server);

  // Cooldown on the fallback is clean...
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.Recommend(0, 5).ok());
  }
  // ...but the probed slice is still broken: every probe query errors, so
  // the window fails and the shard reverts to its fallback for good.
  {
    ScopedFaultSchedule faults(
        {{FaultPoint::kServeScoreNan,
          {.trigger_at_hit = 1, .max_fires = -1}}});
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(server.Recommend(0, 5).status().code(),
                StatusCode::kInternal);
    }
  }
  EXPECT_EQ(server.shard_versions()[static_cast<size_t>(blamed)], 1);
  auto stats = server.stats();
  EXPECT_EQ(stats.probes, 1);
  EXPECT_EQ(stats.probe_recoveries, 0);
  EXPECT_EQ(stats.probe_failures, 1);
  EXPECT_EQ(CountShardEvents(server, blamed, FlightEventKind::kProbeFailed),
            1);
  // The discarded slice stays gone: clean traffic does not re-open a probe.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.Recommend(0, 5).ok());
  }
  EXPECT_EQ(server.stats().probes, 1);
  EXPECT_EQ(server.shard_versions()[static_cast<size_t>(blamed)], 1);
}

TEST(ShardedHalfOpenTest, PublishSupersedesAPendingProbe) {
  ModelServer server(History(), HalfOpenOptions());
  ASSERT_TRUE(server.PublishModel(RandomModel(1)).ok());  // v1
  ASSERT_TRUE(server.PublishModel(RandomModel(2)).ok());  // v2
  const int32_t blamed = TripOneShard(&server);

  // A fresh publish lands during the cooldown: the stashed slice is
  // superseded and no probe should ever run against it.
  ASSERT_TRUE(server.PublishModel(RandomModel(3)).ok());  // v3, all shards
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(server.Recommend(0, 5).ok());
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.probes, 0);
  EXPECT_EQ(stats.probe_recoveries, 0);
  EXPECT_EQ(stats.probe_failures, 0);
  EXPECT_EQ(CountShardEvents(server, blamed, FlightEventKind::kProbeStart),
            0);
  std::vector<int64_t> versions = server.shard_versions();
  for (int32_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(versions[static_cast<size_t>(s)], 3) << "shard " << s;
  }
}

}  // namespace
}  // namespace clapf

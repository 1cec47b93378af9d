// Query contracts of the serving front end, each checked through
// ModelServer on one shard (the monolithic case) and on three: history and
// explicit exclusions, the cold-start fallback and its opt-out, the k clamp,
// min_score, batch validation and the batch reply, and publishing a saved
// model file. Every list is asked for twice — one Recommend per user and
// one RecommendBatch — and the two answers must agree bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "clapf/baselines/bpr.h"
#include "clapf/data/synthetic.h"
#include "clapf/model/model_io.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/logging.h"
#include "testing/fault_schedule.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

using clapf::testing::ScopedFaultSchedule;

constexpr int32_t kItems = 24;  // three packed blocks: up to three shards
constexpr UserId kCold = 2;

constexpr int32_t kShardCounts[] = {1, 3};

// Scores: user 0 ranks items by ascending id, user 1 by descending id, and
// the cold user 2 scores every item 0.5.
FactorModel QueryModel() {
  std::vector<std::vector<double>> scores(
      3, std::vector<double>(static_cast<size_t>(kItems), 0.5));
  for (ItemId i = 0; i < kItems; ++i) {
    scores[0][static_cast<size_t>(i)] = i;
    scores[1][static_cast<size_t>(i)] = kItems - 1 - i;
  }
  return testing::MakeExactModel(scores);
}

// User 0 has seen items 5 and 23, user 1 items 0 and 5; user 2 is cold.
// Item 5 is the most popular item, then items 0 and 23.
Dataset QueryHistory() {
  return testing::MakeDataset(3, kItems, {{0, 5}, {0, 23}, {1, 0}, {1, 5}});
}

ServerOptions QueryServing(int32_t shards) {
  ServerOptions options;
  options.num_shards = shards;
  options.num_threads = 2;
  return options;
}

// A server over QueryHistory() with QueryModel() published.
std::unique_ptr<ModelServer> Published(int32_t shards) {
  auto server =
      std::make_unique<ModelServer>(QueryHistory(), QueryServing(shards));
  CLAPF_CHECK_OK(server->PublishModel(QueryModel()));
  CLAPF_CHECK(server->num_shards() == shards);
  return server;
}

std::vector<ItemId> Items(const std::vector<ScoredItem>& list) {
  std::vector<ItemId> items;
  for (const ScoredItem& item : list) items.push_back(item.item);
  return items;
}

void ExpectSameList(const std::vector<ScoredItem>& got,
                    const std::vector<ScoredItem>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].item, want[r].item) << context << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score) << context << " rank " << r;
  }
}

// Answers `users` with one RecommendBatch, checks that the reply is complete
// and that each list equals that user's own Recommend, and returns the
// lists.
std::vector<std::vector<ScoredItem>> Serve(ModelServer* server,
                                           const std::vector<UserId>& users,
                                           size_t k,
                                           const QueryOptions& options = {}) {
  auto batch = server->RecommendBatch(users, k, options);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  if (!batch.ok()) return {};
  EXPECT_FALSE(batch->deadline_exceeded);
  EXPECT_EQ(batch->num_complete, users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_NE(batch->complete[i], 0) << "user " << users[i];
    auto one = server->Recommend(users[i], k, options);
    EXPECT_TRUE(one.ok()) << one.status().ToString();
    if (one.ok()) {
      ExpectSameList(batch->results[i], *one,
                     "user " + std::to_string(users[i]));
    }
  }
  return batch->results;
}

// Options that exclude every item.
QueryOptions ExcludeAll() {
  QueryOptions options;
  for (ItemId i = 0; i < kItems; ++i) options.exclude.push_back(i);
  return options;
}

TEST(RecommenderTest, ExcludesHistory) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto lists = Serve(server.get(), {0, 1}, 2);
    ASSERT_EQ(lists.size(), 2u);
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{22, 21}));  // 23 seen
    EXPECT_EQ(Items(lists[1]), (std::vector<ItemId>{1, 2}));    // 0 seen
  }
}

TEST(RecommenderTest, ExplicitExclusionList) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.exclude = {22, 13};  // two shards' items at three shards
    auto lists = Serve(server.get(), {0}, 3, options);
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{21, 20, 19}));
    // Out-of-range exclusions are ignored, not an error.
    options.exclude = {99, -5};
    lists = Serve(server.get(), {0}, 1, options);
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{22}));
  }
}

TEST(ExclusionBitmapTest, ForThreadClearsWhatThePreviousUseSet) {
  ExclusionBitmap& first = ExclusionBitmap::ForThread(100);
  first.Set(3);
  first.Set(97);
  first.Set(3);
  EXPECT_EQ(first.bits().size(), 100u);
  EXPECT_TRUE(first.bits()[3] && first.bits()[97]);
  // A smaller catalog, then a larger one: every bit reads clear, also the
  // ones the shrink dropped.
  ExclusionBitmap& smaller = ExclusionBitmap::ForThread(50);
  EXPECT_EQ(smaller.bits(), std::vector<bool>(50, false));
  smaller.Set(49);
  ExclusionBitmap& larger = ExclusionBitmap::ForThread(120);
  EXPECT_EQ(larger.bits(), std::vector<bool>(120, false));
}

TEST(QueryOptionsTest, ExclusionsDoNotCarryOverToTheNextQuery) {
  // One worker answers every query, so each reuses the bitmap of the one
  // before it, on the popularity path and on the model path.
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options = QueryServing(shards);
    options.num_threads = 1;
    ModelServer server(QueryHistory(), options);
    QueryOptions drop_popular;
    drop_popular.exclude = {5, 0, 23};
    EXPECT_EQ(Items(*server.Recommend(kCold, 2, drop_popular)),
              (std::vector<ItemId>{1, 2}));
    EXPECT_EQ(Items(*server.Recommend(kCold, 2)),
              (std::vector<ItemId>{5, 0}));
    ASSERT_TRUE(server.PublishModel(QueryModel()).ok());
    QueryOptions drop_best;
    drop_best.exclude = {22, 21, 13};
    EXPECT_EQ(Items(*server.Recommend(0, 2, drop_best)),
              (std::vector<ItemId>{20, 19}));
    EXPECT_EQ(Items(*server.Recommend(0, 2)), (std::vector<ItemId>{22, 21}));
    EXPECT_EQ(Items(*server.Recommend(kCold, 2)),
              (std::vector<ItemId>{5, 0}));
  }
}

TEST(RecommenderTest, ColdUserFallsBackToPopularity) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto lists = Serve(server.get(), {kCold}, 3);
    ASSERT_EQ(lists.size(), 1u);
    // By popularity (ties to the smaller id), not by the flat 0.5 scores.
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{5, 0, 23}));
    EXPECT_EQ(lists[0][0].score, 2.0);
  }
}

TEST(RecommenderTest, UnknownUserIsOutOfRange) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    EXPECT_EQ(server->Recommend(7, 3).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(server->Recommend(-1, 3).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(RecommenderTest, KZeroReturnsEmpty) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    for (const auto& list : Serve(server.get(), {0, kCold}, 0)) {
      EXPECT_TRUE(list.empty());
    }
  }
}

TEST(RecommenderTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "serving_query_model.clpf";
  ASSERT_TRUE(SaveModelAtomic(QueryModel(), path).ok());
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto in_memory = Published(shards);
    ModelServer from_file(QueryHistory(), QueryServing(shards));
    ASSERT_TRUE(from_file.PublishModel(path).ok());
    for (UserId u = 0; u < 3; ++u) {
      auto a = in_memory->Recommend(u, 5);
      auto b = from_file.Recommend(u, 5);
      ASSERT_TRUE(a.ok() && b.ok());
      ExpectSameList(*b, *a, "user " + std::to_string(u));
    }
  }
}

TEST(RecommenderTest, LoadMissingModelFails) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(QueryHistory(), QueryServing(shards));
    EXPECT_EQ(server.PublishModel("/no/such/model.clpf").code(),
              StatusCode::kIoError);
    EXPECT_TRUE(server.degraded());
  }
}

TEST(RecommenderTest, KBeyondCatalogIsClampedNotError) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto lists = Serve(server.get(), {0, kCold}, 1000);
    ASSERT_EQ(lists.size(), 2u);
    // Warm user: the whole catalog but its two history items, in order.
    EXPECT_EQ(lists[0].size(), 22u);
    EXPECT_EQ(lists[0].front().item, 22);
    EXPECT_EQ(lists[0].back().item, 0);
    // The cold user's popularity fallback clamps the same way.
    EXPECT_EQ(lists[1].size(), static_cast<size_t>(kItems));
  }
}

TEST(RecommenderTest, AllItemsExcludedYieldsEmptyNotError) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto lists = Serve(server.get(), {0}, 2, ExcludeAll());
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_TRUE(lists[0].empty());
  }
}

TEST(RecommenderTest, ColdUserWithEverythingExcludedYieldsEmptyNotError) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    // The popularity fallback has nothing left to rank either.
    auto lists = Serve(server.get(), {kCold}, 2, ExcludeAll());
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_TRUE(lists[0].empty());
  }
}

TEST(RecommenderTest, MinScoreFilteringEverythingYieldsEmptyNotError) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.min_score = 1000.0;  // above every model and popularity score
    for (const auto& list : Serve(server.get(), {0, 1, kCold}, 3, options)) {
      EXPECT_TRUE(list.empty());
    }
  }
}

TEST(QueryOptionsTest, DefaultOptionsMatchClassicQuery) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto classic = server->Recommend(0, 2);
    auto defaulted = server->Recommend(0, 2, QueryOptions{});
    ASSERT_TRUE(classic.ok() && defaulted.ok());
    EXPECT_EQ(Items(*defaulted), (std::vector<ItemId>{22, 21}));
    ExpectSameList(*defaulted, *classic, "user 0");
  }
}

TEST(QueryOptionsTest, ExcludeListSkipsItems) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.exclude = {22, 99, -1};  // out-of-range ids ignored
    auto lists = Serve(server.get(), {0}, 2, options);
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{21, 20}));
  }
}

TEST(QueryOptionsTest, MinScoreCutsTheTail) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.min_score = 20.5;
    auto lists = Serve(server.get(), {0}, 5, options);
    ASSERT_EQ(lists.size(), 1u);
    // Only items 22 and 21 (scores 22 and 21) clear the floor.
    EXPECT_EQ(Items(lists[0]), (std::vector<ItemId>{22, 21}));
  }
}

TEST(QueryOptionsTest, UnknownUserIsRejected) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    EXPECT_EQ(server->Recommend(17, 2, QueryOptions{}).status().code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(server->stats().client_errors, 1);
  }
}

// Drives every shard of `server` dark through its breaker: with the NaN
// fault armed, queries whose exclusions leave only shard s's items blame
// shard s until it trips. The server has one publish, so no shard has a
// rollback target and each degrades to popularity.
void DegradeEveryShard(ModelServer* server) {
  ScopedFaultSchedule faults(
      {{FaultPoint::kServeScoreNan, {.trigger_at_hit = 1, .max_fires = -1}}});
  for (int32_t s = 0; s < server->num_shards(); ++s) {
    QueryOptions only_shard;
    for (ItemId i = 0; i < kItems; ++i) {
      if (i < server->shard_map().begin(s) || i >= server->shard_map().end(s)) {
        only_shard.exclude.push_back(i);
      }
    }
    for (int q = 0; q < 16; ++q) {
      if (server->shard_stats()[static_cast<size_t>(s)].breaker_trips > 0) {
        break;
      }
      EXPECT_EQ(server->Recommend(0, 5, only_shard).status().code(),
                StatusCode::kInternal);
    }
    ASSERT_EQ(server->shard_stats()[static_cast<size_t>(s)].breaker_trips, 1)
        << "shard " << s;
  }
}

TEST(QueryOptionsTest, ColdStartOptOutHoldsInEveryServingState) {
  // cold_start_fallback = false promises an empty list for a cold user in
  // every state the server can be in: before the first publish and after a
  // breaker left no shard with a model (both answered whole-catalog from
  // popularity), and while a model serves.
  auto expect_opt_out_holds = [](ModelServer* server) {
    QueryOptions no_fallback;
    no_fallback.cold_start_fallback = false;
    auto lists = Serve(server, {kCold, 0}, 5, no_fallback);
    ASSERT_EQ(lists.size(), 2u);
    EXPECT_TRUE(lists[0].empty()) << "cold user served "
                                  << lists[0].size() << " items";
    EXPECT_EQ(lists[1].size(), 5u);  // the warm user is answered as ever
    // The default options still serve the cold user popularity.
    auto fallback = Serve(server, {kCold}, 5);
    ASSERT_EQ(fallback.size(), 1u);
    EXPECT_EQ(Items(fallback[0]), (std::vector<ItemId>{5, 0, 23, 1, 2}));
  };
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServerOptions options = QueryServing(shards);
    options.breaker.min_samples = 4;
    options.breaker.window = 8;
    ModelServer server(QueryHistory(), options);
    {
      SCOPED_TRACE("before the first publish");
      ASSERT_TRUE(server.degraded());
      expect_opt_out_holds(&server);
    }
    ASSERT_TRUE(server.PublishModel(QueryModel()).ok());
    {
      SCOPED_TRACE("after a publish");
      ASSERT_FALSE(server.degraded());
      expect_opt_out_holds(&server);
    }
    DegradeEveryShard(&server);
    {
      SCOPED_TRACE("after the breaker degraded every shard");
      ASSERT_EQ(server.shard_versions(),
                std::vector<int64_t>(static_cast<size_t>(shards), 0));
      expect_opt_out_holds(&server);
    }
  }
}

TEST(RecommendBatchTest, MatchesPerUserQueriesExactly) {
  SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 60;
  cfg.num_interactions = 800;
  cfg.seed = 11;
  Dataset data = *GenerateSynthetic(cfg);

  BprOptions o;
  o.sgd.num_factors = 6;
  o.sgd.iterations = 4000;
  o.sgd.seed = 3;
  BprTrainer t(o);
  ASSERT_TRUE(t.Train(data).ok());

  std::vector<UserId> users;
  for (UserId u = 0; u < data.num_users(); ++u) users.push_back(u);
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ModelServer server(data, QueryServing(shards));
    ASSERT_TRUE(server.PublishModel(*t.model()).ok());
    EXPECT_EQ(Serve(&server, users, 5).size(), users.size());
  }
}

TEST(RecommendBatchTest, OneBadIdFailsTheWholeBatchUpFront) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    for (UserId bad : {42, -1}) {
      std::vector<UserId> users = {0, 1, bad};
      EXPECT_EQ(server->RecommendBatch(users, 2).status().code(),
                StatusCode::kOutOfRange);
    }
  }
}

TEST(RecommendBatchTest, EmptyBatchIsFine) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto got = server->RecommendBatch(std::vector<UserId>{}, 2);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->results.empty());
    EXPECT_EQ(got->num_complete, 0u);
    EXPECT_FALSE(got->deadline_exceeded);
  }
}

TEST(RecommendBatchTest, KBeyondCatalogIsClampedPerUser) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    auto lists = Serve(server.get(), {0, 1, kCold}, 1000);
    ASSERT_EQ(lists.size(), 3u);
    EXPECT_EQ(lists[0].size(), 22u);  // two history items of 24
    EXPECT_EQ(lists[1].size(), 22u);
    EXPECT_EQ(lists[2].size(), 24u);  // the cold user ranks the catalog
  }
}

TEST(RecommendBatchPartialTest, NoDeadlineMatchesRecommendBatch) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    // Serve checks the reply is complete, unflagged, and equal to the
    // per-user answers.
    EXPECT_EQ(Serve(server.get(), {0, 1, kCold}, 2).size(), 3u);
  }
}

TEST(RecommendBatchPartialTest, BadIdStillFailsTheWholeCall) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.deadline = std::chrono::seconds(30);
    std::vector<UserId> users = {0, 42};
    EXPECT_EQ(server->RecommendBatch(users, 2, options).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(RecommendBatchPartialTest, GenerousDeadlineCompletesEveryUser) {
  for (int32_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto server = Published(shards);
    QueryOptions options;
    options.deadline = std::chrono::seconds(30);
    EXPECT_EQ(Serve(server.get(), {0, 1, kCold}, 2, options).size(), 3u);
    EXPECT_EQ(server->stats().deadline_exceeded, 0);
  }
}

}  // namespace
}  // namespace clapf

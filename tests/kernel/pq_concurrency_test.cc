// Concurrency drills for the quantized first-pass path: query threads
// streaming a slice's int8 codes while a writer republishes (code book +
// codes rebuilt and swapped with the index through the same RCU snapshot
// hop) must stay clean under ThreadSanitizer, with every reply either a
// valid pq answer or a typed serving outcome. Part of the `pq` ctest label —
// the TSan acceptance suite for the code-book hot-swap path.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "clapf/model/ivf_index.h"
#include "clapf/serving/publish_request.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

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

TEST(PqConcurrencyTest, QueriesRaceRepublishCodeBookSwapCleanly) {
  // 4 reader threads run quantized-first-pass queries flat out while the
  // writer republishes perturbed candidates; most publishes take the
  // frozen-book incremental path, so readers continuously race code arrays
  // being copied item-by-item on the build thread. TSan is the real
  // assertion; on top of it every reply must be well-formed.
  const auto history = testing::MakeLearnableDataset(16, 600, 6, 211);
  ServerOptions options;
  options.num_threads = 2;
  options.ann = true;
  options.ivf.num_clusters = 10;
  options.ivf.default_nprobe = 5;
  options.ivf.pq = true;
  // The race is the thing being drilled; the measured composed gate would
  // only add noise (and CPU) to every stress publish.
  options.canary.ann_recall_floor = 0.0;
  ModelServer server(history, options);
  auto model = MakeRandomModel(16, 600, 8, 211);
  ASSERT_TRUE(server.PublishModel(model).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      QueryOptions pq;
      pq.ann = true;
      pq.pq = true;
      pq.ann_nprobe = 1 + t * 3;      // every thread probes a different width
      pq.rerank_budget = 16 + t * 48;  // and keeps a different survivor count
      UserId u = static_cast<UserId>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto got = server.Recommend(u, 10, pq);
        if (got.ok()) {
          ASSERT_LE(got->size(), 10u);
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Under publish pressure the only acceptable non-answers are the
          // typed serving outcomes, never a torn code read.
          ASSERT_TRUE(got.status().code() == StatusCode::kUnavailable ||
                      got.status().code() == StatusCode::kDeadlineExceeded)
              << got.status().ToString();
        }
        u = static_cast<UserId>((u + 1) % 16);
      }
    });
  }

  for (int round = 0; round < 8; ++round) {
    // Perturb a sliver of the catalog so most publishes take the
    // incremental frozen-book path — the copy-then-swap being drilled.
    for (ItemId i = 0; i < 600; i += 97) {
      model.ItemFactors(i)[0] += 0.01 * (round + 1);
    }
    ASSERT_TRUE(server.PublishModel(model).ok());
  }
  // On a single-core box the publish loop can outrun the readers; once
  // publishes quiesce every query succeeds, so this wait is bounded.
  while (answered.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(server.version(), 9);
}

TEST(PqConcurrencyTest, ShardedQueriesRacePerShardCodeBookReloads) {
  // Same drill against the scatter-gather front end: single-shard pq
  // republishes race broadcast queries, so readers continuously cut chains
  // where some shards serve a fresh code book and others the old one.
  const auto history = testing::MakeLearnableDataset(16, 480, 6, 223);
  ServerOptions options;
  options.num_threads = 2;
  options.num_shards = 4;
  options.ann = true;
  options.ivf.num_clusters = 6;
  options.ivf.default_nprobe = 3;
  options.ivf.pq = true;
  options.canary.ann_recall_floor = 0.0;
  ModelServer server(history, options);
  auto model = MakeRandomModel(16, 480, 8, 223);
  ASSERT_TRUE(server.PublishModel(model).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      QueryOptions pq;
      pq.ann = true;
      pq.pq = true;
      UserId u = static_cast<UserId>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto got = server.Recommend(u, 8, pq);
        if (got.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(got.status().code() == StatusCode::kUnavailable ||
                      got.status().code() == StatusCode::kDeadlineExceeded)
              << got.status().ToString();
        }
        u = static_cast<UserId>((u + 1) % 16);
      }
    });
  }

  for (int round = 0; round < 6; ++round) {
    for (ItemId i = 0; i < 480; i += 61) {
      model.ItemFactors(i)[0] += 0.02 * (round + 1);
    }
    ASSERT_TRUE(server
                    .PublishModel(PublishRequest(model).WithShard(round % 4))
                    .ok());
  }
  // Same single-core guard as above: let at least one broadcast land.
  while (answered.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answered.load(), 0);
}

}  // namespace
}  // namespace clapf

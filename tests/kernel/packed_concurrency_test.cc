// Concurrency drills for packed serving — the TSan acceptance tests for the
// kernel label: many readers scoring one shared immutable snapshot, and
// queries over the packed fast path racing hot swaps that retire snapshots
// under them (the RCU refcount must keep each in-flight query's snapshot
// alive).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "clapf/model/packed_snapshot.h"
#include "clapf/model/score_kernel.h"
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

TEST(PackedConcurrencyTest, ManyReadersShareOneSnapshot) {
  const auto model = MakeRandomModel(16, 128, 16, 3);
  const PackedSnapshot snap = PackedSnapshot::Build(model);

  std::vector<double> want(128);
  snap.ScoreItemRange(0, 0, 128, &want);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&snap, &want, &mismatches, t] {
      std::vector<double> got(128);
      TopKAccumulator acc(5);
      for (int round = 0; round < 20; ++round) {
        const UserId u = (t + round) % 16;
        snap.ScoreItemRange(u, 0, 128, &got);
        if (u == 0 && got != want) mismatches.fetch_add(1);
        ScoreBlocksTopK(snap, u, 0, 128, nullptr, &acc);
        acc.Take();
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0) << "read-only scan saw unstable data";
}

TEST(PackedConcurrencyTest, QueriesRaceHotSwapsOnPackedPath) {
  const auto history = testing::MakeLearnableDataset(16, 64, 6, 7);
  ServerOptions options;
  options.num_threads = 2;
  ModelServer server(history, options);
  ASSERT_TRUE(server.PublishModel(MakeRandomModel(16, 64, 12, 100)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &stop, &failures, t] {
      int round = 0;
      while (!stop.load(std::memory_order_relaxed) || round < 10) {
        auto got = server.Recommend((t * 5 + round) % 16, 5);
        // Unavailable (admission shed) is a legal outcome under load; any
        // other failure means a query observed a broken snapshot.
        if (!got.ok() &&
            got.status().code() != StatusCode::kUnavailable) {
          failures.fetch_add(1);
        }
        ++round;
      }
    });
  }

  // Hot-swap a stream of fresh models while the readers hammer the server;
  // each publish rebuilds and re-gates a packed snapshot. Failures are
  // collected, not asserted, so the readers always get their stop signal.
  std::vector<Status> published;
  for (uint64_t version = 0; version < 6; ++version) {
    published.push_back(server.PublishModel(MakeRandomModel(16, 64, 12, 200 + version)));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  for (const Status& s : published) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.version(), 7);
  EXPECT_FALSE(server.degraded());
}

}  // namespace
}  // namespace clapf

#include "clapf/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace clapf {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter, &done] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::latch done(10);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter, &done] {
      ++counter;
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    std::latch done(20);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter, &done] {
        ++counter;
        done.count_down();
      });
    }
    done.wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&counter] { ++counter; });
  }
  EXPECT_EQ(counter.load(), 50);
}

// The thread each index ran on, one slot per index: every index must run
// exactly once, so distinct slots are written by at most one thread each.
struct ForEachRun {
  std::vector<std::atomic<int>> hits;
  std::vector<std::thread::id> ran_on;

  ForEachRun(int64_t n, int threads)
      : hits(static_cast<size_t>(n)), ran_on(static_cast<size_t>(n)) {
    ParallelForEach(n, threads, [this](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
      ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
    });
  }

  std::set<std::thread::id> Threads() const {
    return std::set<std::thread::id>(ran_on.begin(), ran_on.end());
  }
};

constexpr int64_t kSizes[] = {0, 1, 2, 7, 1000};
constexpr int kThreadBudgets[] = {1, 2, 4, 64};

TEST(ThreadPoolTest, ParallelForEachRunsEveryIndexExactlyOnce) {
  for (int64_t n : kSizes) {
    for (int threads : kThreadBudgets) {
      SCOPED_TRACE("n " + std::to_string(n) + " threads " +
                   std::to_string(threads));
      const ForEachRun run(n, threads);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(run.hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForEachRunsOnAtMostTheBudgetAndOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int64_t n : kSizes) {
    for (int threads : kThreadBudgets) {
      SCOPED_TRACE("n " + std::to_string(n) + " threads " +
                   std::to_string(threads));
      const ForEachRun run(n, threads);
      const std::set<std::thread::id> used = run.Threads();
      EXPECT_LE(static_cast<int64_t>(used.size()),
                std::min<int64_t>(threads, n));
      if (n > 1 && threads > 1) {
        EXPECT_EQ(used.count(caller), 1u) << "the caller ran no index";
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForEachWithOneThreadRunsInlineOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {-1, 0, 1}) {
    const ForEachRun run(257, threads);
    for (const std::thread::id& id : run.ran_on) EXPECT_EQ(id, caller);
  }
  // One index runs on the caller at any budget.
  const ForEachRun single(1, 64);
  EXPECT_EQ(single.ran_on[0], caller);
}

}  // namespace
}  // namespace clapf

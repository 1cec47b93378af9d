// Caller-runs admission: the gate in front of ModelServer runs every
// admitted query on the thread that asked for it. The drill pins the
// gate's bounds — at most num_threads callers run at once, waiting callers
// start in admission order, callers past max_depth are shed with
// Unavailable, and a moved bound applies from the next admission — and a
// one-shard server without a governor must start no thread at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clapf/obs/metrics.h"
#include "clapf/serving/admission_queue.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

// Callers that hold their run slot until the test lets each one go, and
// record the order they started in and how many ran at once.
class HeldCallers {
 public:
  explicit HeldCallers(AdmissionQueue* queue) : queue_(queue) {}

  ~HeldCallers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::fill(released_.begin(), released_.end(), true);
    }
    changed_.notify_all();
    for (auto& t : threads_) t.join();
  }

  // Starts caller `id` and returns once the gate has admitted it, so the
  // callers' admission order is the order of these calls.
  void Arrive(int id) {
    const int64_t admitted = queue_->depth() + 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.resize(std::max<size_t>(released_.size(), id + 1), false);
    }
    threads_.emplace_back([this, id] {
      Status status = queue_->Run([this, id] {
        std::unique_lock<std::mutex> lock(mu_);
        started_.push_back(id);
        high_water_ = std::max(high_water_, ++running_);
        changed_.notify_all();
        changed_.wait(lock,
                      [&] { return released_[static_cast<size_t>(id)]; });
        --running_;
      });
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
    while (queue_->depth() < admitted) std::this_thread::yield();
  }

  void Release(int id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_[static_cast<size_t>(id)] = true;
    }
    changed_.notify_all();
  }

  // Blocks until `n` callers have started; returns the start order.
  std::vector<int> WaitForStarts(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return started_.size() >= n; });
    return started_;
  }

  int high_water() {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  void JoinAll() {
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  AdmissionQueue* queue_;
  std::mutex mu_;
  std::condition_variable changed_;
  std::vector<bool> released_;
  std::vector<int> started_;
  int running_ = 0;
  int high_water_ = 0;
  std::vector<std::thread> threads_;
};

TEST(AdmissionQueueTest, ConcurrentCallersRunInAdmissionOrderWithinTheBounds) {
  constexpr int kThreads = 2;
  constexpr int kDepth = 5;
  MetricsRegistry registry;
  AdmissionQueue queue(kThreads, kDepth, &registry);
  Counter* shed_total = registry.GetCounter("serving.admission.shed_total");
  {
    HeldCallers callers(&queue);
    for (int id = 0; id < kDepth; ++id) {
      callers.Arrive(id);
      if (id < kThreads) callers.WaitForStarts(id + 1);  // runs at once
    }
    EXPECT_EQ(queue.depth(), kDepth);  // two running, three waiting
    EXPECT_EQ(callers.WaitForStarts(2), (std::vector<int>{0, 1}));

    // A caller past max_depth is shed and never runs.
    bool ran = false;
    Status refused = queue.Run([&ran] { ran = true; });
    EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
    EXPECT_FALSE(ran);
    EXPECT_EQ(queue.shed(), 1);
    EXPECT_EQ(shed_total->Value(), 1);
    EXPECT_EQ(queue.depth(), kDepth);

    // Each freed slot goes to the oldest waiter, whichever caller freed it.
    callers.Release(1);
    EXPECT_EQ(callers.WaitForStarts(3), (std::vector<int>{0, 1, 2}));
    callers.Release(0);
    EXPECT_EQ(callers.WaitForStarts(4), (std::vector<int>{0, 1, 2, 3}));
    callers.Release(3);
    EXPECT_EQ(callers.WaitForStarts(5), (std::vector<int>{0, 1, 2, 3, 4}));
    callers.Release(2);
    callers.Release(4);
    callers.JoinAll();
    EXPECT_EQ(callers.high_water(), kThreads);
  }
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.admitted(), kDepth);

  // A lowered bound leaves the admitted callers alone and applies from the
  // next admission.
  {
    HeldCallers callers(&queue);
    callers.Arrive(0);
    callers.Arrive(1);
    callers.WaitForStarts(2);
    queue.set_max_depth(1);
    EXPECT_EQ(queue.Run([] {}).code(), StatusCode::kUnavailable);
    EXPECT_EQ(queue.depth(), 2);
    callers.Release(0);
    callers.Release(1);
    callers.JoinAll();
  }
  EXPECT_EQ(queue.depth(), 0);
  bool ran = false;
  EXPECT_TRUE(queue.Run([&ran] { ran = true; }).ok());
  EXPECT_TRUE(ran);
  {
    HeldCallers callers(&queue);
    callers.Arrive(0);
    EXPECT_EQ(queue.Run([] {}).code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.shed(), 3);
  EXPECT_EQ(queue.admitted(), kDepth + 4);
}

// The process's thread count, from the Threads: line of /proc/self/status.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return -1;
}

TEST(ModelServerTest, OneShardServerWithoutGovernorStartsNoThread) {
  const Dataset history = testing::MakeLearnableDataset(30, 40, 8, 7);
  FactorModel model(30, 40, 8);
  Rng rng(1);
  model.InitGaussian(rng);
  ServerOptions options;  // one shard, no governor
  options.num_threads = 4;

  const int before = ThreadCount();
  ModelServer server(history, options);
  EXPECT_EQ(ThreadCount(), before) << "construction started a thread";
  ASSERT_TRUE(server.Recommend(0, 5).ok());  // popularity, no model yet
  EXPECT_EQ(ThreadCount(), before) << "a degraded query started a thread";
  ASSERT_TRUE(server.PublishModel(std::move(model)).ok());
  ASSERT_TRUE(server.Recommend(0, 5).ok());
  const UserId users[] = {0, 1, 2};
  ASSERT_TRUE(server.RecommendBatch(users, 5).ok());
  EXPECT_EQ(ThreadCount(), before) << "a served query started a thread";
}

}  // namespace
}  // namespace clapf

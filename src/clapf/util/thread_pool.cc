#include "clapf/util/thread_pool.h"

#include <algorithm>

#include "clapf/util/logging.h"

namespace clapf {

ThreadPool::ThreadPool(int num_threads) {
  CLAPF_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    CLAPF_CHECK(!shutting_down_);
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down with nothing left
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ParallelForEach(int64_t n, int threads,
                     const std::function<void(int64_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const int64_t workers = std::min<int64_t>(threads, n);
  const int64_t chunk = (n + 4 * workers - 1) / (4 * workers);
  const auto run_chunk = [&](int64_t lo) {
    const int64_t hi = std::min(n, lo + chunk);
    for (int64_t i = lo; i < hi; ++i) fn(i);
  };
  // The first chunk is the caller's, so the caller always does its share.
  std::atomic<int64_t> next{chunk};
  const auto drain = [&] {
    for (int64_t lo = next.fetch_add(chunk, std::memory_order_relaxed); lo < n;
         lo = next.fetch_add(chunk, std::memory_order_relaxed)) {
      run_chunk(lo);
    }
  };
  std::vector<std::jthread> helpers;
  helpers.reserve(static_cast<size_t>(workers - 1));
  for (int64_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  run_chunk(0);
  drain();
  // The helpers' destructors join them, which orders every fn(i) before
  // the return.
}

}  // namespace clapf

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
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t)>& fn) {
  if (begin >= end) return;
  const int64_t span = end - begin;
  const int64_t shards =
      std::min<int64_t>(span, static_cast<int64_t>(workers_.size()) * 4);
  const int64_t chunk = (span + shards - 1) / shards;
  for (int64_t s = 0; s < shards; ++s) {
    const int64_t lo = begin + s * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    Submit([lo, hi, &fn] {
      for (int64_t i = lo; i < hi; ++i) fn(i);
    });
  }
  Wait();
}

void ParallelForEach(int64_t n, int threads,
                     const std::function<void(int64_t)>& fn) {
  if (threads > 1 && n > 1) {
    ThreadPool pool(threads);
    pool.ParallelFor(0, n, fn);
  } else {
    for (int64_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace clapf

#ifndef CLAPF_UTIL_THREAD_POOL_H_
#define CLAPF_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace clapf {

/// Fixed-size worker pool for CPU-bound fan-out (parallel evaluation over
/// users). Tasks are void() closures; Wait() blocks until the queue drains
/// and all workers are idle.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Convenience: runs fn(begin..end) sharded across the pool and waits.
  /// fn is invoked as fn(index) for every index in [begin, end).
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  int64_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Lowers `*target` to `value` when `value` is smaller: the monotone
/// minimum a parallel search publishes its first failing index through, so
/// other workers can stop scanning past it. Relaxed; the search's join
/// orders the final read.
template <typename T>
void AtomicMin(std::atomic<T>* target, T value) {
  T seen = target->load(std::memory_order_relaxed);
  while (value < seen && !target->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

/// Runs fn(i) for every i in [0, n): inline on the calling thread when
/// `threads` <= 1, else through ParallelFor on a pool of `threads` workers
/// that lives for the call. fn must be safe to run concurrently for
/// distinct indexes. The build-time passes (IVF, code book, publish gate)
/// use it with their build-thread budget.
void ParallelForEach(int64_t n, int threads,
                     const std::function<void(int64_t)>& fn);

}  // namespace clapf

#endif  // CLAPF_UTIL_THREAD_POOL_H_

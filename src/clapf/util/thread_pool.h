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

/// Fixed-size worker pool that runs submitted void() closures in FIFO
/// order: the sharded server's scatter pool. A caller that needs to know
/// when its tasks finished counts them down itself (a std::latch).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Runs every task still queued, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
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

/// Runs fn(i) for every i in [0, n) and returns once all have run. With
/// `threads` <= 1 or n <= 1 the loop runs inline on the calling thread;
/// otherwise the caller and min(threads, n) - 1 helper threads, started for
/// the call, claim chunks of ceil(n / (4 * workers)) indexes from one shared
/// counter, the first chunk being the caller's, so at most `threads` threads
/// run fn and the caller is one of them. fn must be safe to run
/// concurrently for distinct indexes. The build-time passes (IVF, code
/// book, publish gate) and the parallel evaluator use it with their thread
/// budget.
void ParallelForEach(int64_t n, int threads,
                     const std::function<void(int64_t)>& fn);

}  // namespace clapf

#endif  // CLAPF_UTIL_THREAD_POOL_H_

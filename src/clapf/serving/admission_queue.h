#ifndef CLAPF_SERVING_ADMISSION_QUEUE_H_
#define CLAPF_SERVING_ADMISSION_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

/// Bounded admission gate in front of a worker pool. Work past
/// `max_depth` pending-or-running tasks is refused with Unavailable
/// instead of queueing — under overload the server sheds requests with a
/// typed error while memory stays bounded, rather than growing an
/// unbounded backlog whose every entry will miss its deadline anyway
/// (classic admission control, cf. SRE load-shedding practice).
class AdmissionQueue {
 public:
  /// Pool of `num_threads` workers admitting at most `max_depth` tasks.
  /// Lifetime counters land in `metrics` (`serving.admission.admitted_total`
  /// / `serving.admission.shed_total`); pass null to use a private registry,
  /// which keeps the admitted()/shed() accessors working standalone.
  AdmissionQueue(int num_threads, int64_t max_depth,
                 MetricsRegistry* metrics = nullptr);

  /// Admits `task` unless the queue is at `max_depth`. On admission the task
  /// will run on a pool worker; on refusal returns Unavailable and `task` is
  /// dropped untouched. Thread-safe.
  Status Submit(std::function<void()> task);

  /// Blocks until every admitted task has finished.
  void Wait();

  /// Tasks admitted but not yet finished.
  int64_t depth() const { return pool_.InFlight(); }
  int64_t max_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Moves the admission bound at runtime (clamped to >= 1) — the serving
  /// governor's lever. Already-admitted tasks are unaffected; the new bound
  /// applies from the next Submit. Thread-safe.
  void set_max_depth(int64_t max_depth) {
    max_depth_.store(std::max<int64_t>(1, max_depth),
                     std::memory_order_relaxed);
  }

  /// Lifetime counters for observability.
  int64_t admitted() const { return admitted_->Value(); }
  int64_t shed() const { return shed_->Value(); }

 private:
  ThreadPool pool_;
  std::atomic<int64_t> max_depth_;
  std::unique_ptr<MetricsRegistry> owned_registry_;  // null when shared
  Counter* admitted_;
  Counter* shed_;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_ADMISSION_QUEUE_H_

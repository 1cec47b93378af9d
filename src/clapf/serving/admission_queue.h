#ifndef CLAPF_SERVING_ADMISSION_QUEUE_H_
#define CLAPF_SERVING_ADMISSION_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"

namespace clapf {

/// Bounded admission gate in front of work that runs on its caller's
/// thread. At most `max_depth` callers are admitted and unfinished at once;
/// the rest are refused with Unavailable instead of queueing — under
/// overload the server sheds requests with a typed error while memory stays
/// bounded, rather than growing an unbounded backlog whose every entry will
/// miss its deadline anyway (classic admission control, cf. SRE
/// load-shedding practice). Of the admitted callers at most `num_threads`
/// run at once; the others wait and start in admission order.
class AdmissionQueue {
 public:
  /// Runs at most `num_threads` callers at once and admits at most
  /// `max_depth`. Lifetime counters land in `metrics`
  /// (`serving.admission.admitted_total` / `serving.admission.shed_total`);
  /// pass null to use a private registry, which keeps the admitted()/shed()
  /// accessors working standalone.
  AdmissionQueue(int num_threads, int64_t max_depth,
                 MetricsRegistry* metrics = nullptr);

  /// Admits the calling thread unless `max_depth` callers are admitted and
  /// unfinished; on refusal returns Unavailable and `serve` never runs. An
  /// admitted caller waits until fewer than `num_threads` admitted callers
  /// are running, runs `serve` on its own thread, and frees its run slot on
  /// every path out. Thread-safe.
  template <typename Serve>
  Status Run(Serve&& serve) {
    CLAPF_RETURN_IF_ERROR(Enter());
    RunSlot slot(this);
    std::forward<Serve>(serve)();
    return Status::OK();
  }

  /// Callers admitted but not yet finished, running or waiting.
  int64_t depth() const;
  int64_t max_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// Moves the admission bound at runtime (clamped to >= 1) — the serving
  /// governor's lever. Already-admitted callers are unaffected; the new
  /// bound applies from the next admission. Thread-safe.
  void set_max_depth(int64_t max_depth) {
    max_depth_.store(std::max<int64_t>(1, max_depth),
                     std::memory_order_relaxed);
  }

  /// Lifetime counters for observability.
  int64_t admitted() const { return admitted_->Value(); }
  int64_t shed() const { return shed_->Value(); }

 private:
  /// An admitted caller's run slot, freed when the slot is destroyed.
  class RunSlot {
   public:
    explicit RunSlot(AdmissionQueue* queue) : queue_(queue) {}
    ~RunSlot() { queue_->Leave(); }
    RunSlot(const RunSlot&) = delete;
    RunSlot& operator=(const RunSlot&) = delete;

   private:
    AdmissionQueue* queue_;
  };

  /// Admits or sheds the caller; an admitted caller returns once its ticket
  /// may run.
  Status Enter();
  /// Marks one running caller finished and wakes the waiters.
  void Leave();

  const int64_t num_threads_;
  std::atomic<int64_t> max_depth_;
  // Ticket t, handed out in admission order, may run once
  // t - finished_ < num_threads_. waiters_ holds the condition variables of
  // the tickets that may not run yet, oldest first.
  mutable std::mutex mu_;
  int64_t next_ticket_ = 0;
  int64_t finished_ = 0;
  std::deque<std::condition_variable*> waiters_;
  std::unique_ptr<MetricsRegistry> owned_registry_;  // null when shared
  Counter* admitted_;
  Counter* shed_;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_ADMISSION_QUEUE_H_

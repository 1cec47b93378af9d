#ifndef CLAPF_SERVING_GOVERNOR_H_
#define CLAPF_SERVING_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/serving/admission_queue.h"
#include "clapf/serving/flight_recorder.h"

namespace clapf {

/// Declared per-knob bounds. A governor may move a knob anywhere inside its
/// bounds and nowhere else — the bounds are the operator's contract that
/// adaptation can never shed everything or admit the world.
struct GovernorKnobBounds {
  /// Admission-queue depth range. max == 0 inherits the server's configured
  /// max_queue_depth (the rest value).
  int64_t min_queue_depth = 2;
  int64_t max_queue_depth = 0;
  /// Floor of the server-imposed per-query deadline budget, microseconds.
  /// At rest there is no server-side cap (queries keep whatever deadline
  /// the client set); under pressure a governor caps budgets at this floor.
  int64_t min_deadline_budget_us = 2000;
};

/// Current knob values, readable at any time (atomic copies).
struct GovernorKnobs {
  int64_t max_queue_depth = 0;
  int64_t deadline_budget_us = 0;  ///< 0 = no server-side cap
};

/// ServingGovernor construction knobs. A ModelServer runs a governor only
/// when ServerOptions::governor holds these.
struct GovernorOptions {
  GovernorKnobBounds bounds;
  /// Ticker cadence for the dedicated governor thread; <= 0 disables the
  /// thread so only manual Tick() calls (tests, serving-loop piggyback)
  /// drive the control loop.
  int64_t interval_us = 50000;
  /// Consecutive calm ticks before one relaxation step.
  int64_t decay_ticks = 3;
};

/// The ondemand serving governor, named after the Linux cpufreq governor
/// whose control shape it borrows. Each tick reads the serving metrics; on
/// pressure — queue utilization (depth / current bound) of at least 0.75,
/// any shed or breaker trip, or a deadline-miss rate of at least 0.5 since
/// the previous tick — it steps every knob to its defensive bound at once,
/// and once pressure subsides the knobs decay back one relaxation step per
/// `decay_ticks` calm ticks. Aggressive up, slow down.
///
/// One governor serves one ModelServer: it owns the control state,
/// publishes every current knob value as a gauge
/// (`serving.governor.queue_depth`, `serving.governor.deadline_budget_us`),
/// and records every knob movement in the flight recorder, so live exporter
/// scrapes and post-incident dumps both show what adaptation did and when.
///
/// Inputs per tick (all from the shared MetricsRegistry / admission queue):
/// the instantaneous queue depth (admitted callers, running or waiting) and
/// deltas of the serving outcome counters (queries, sheds, deadline misses,
/// breaker trips).
///
/// Thread-safe: Tick() may run on the internal ticker thread or be called
/// manually (deterministic drills); knobs() and ApplyToQuery() are lock-free
/// reads from any thread. Tick() itself is serialized by an internal mutex.
class ServingGovernor {
 public:
  /// `metrics`, `queue`, and `recorder` must outlive the governor; a zero
  /// bounds.max_queue_depth inherits `initial_queue_depth` as the rest
  /// value. Knobs start at rest. The ticker thread is NOT started here —
  /// call Start().
  ServingGovernor(const GovernorOptions& options, int64_t initial_queue_depth,
                  MetricsRegistry* metrics, AdmissionQueue* queue,
                  FlightRecorder* recorder);
  ~ServingGovernor();

  ServingGovernor(const ServingGovernor&) = delete;
  ServingGovernor& operator=(const ServingGovernor&) = delete;

  /// Starts the dedicated ticker thread when interval_us > 0; otherwise a
  /// no-op.
  void Start();

  /// Stops and joins the ticker thread; idempotent.
  void Stop();

  /// One control step: read inputs, move knobs (bounded), publish gauges,
  /// record decisions. Deterministic given the metric state, which is what
  /// the governor drills rely on.
  void Tick();

  /// Applies the current knobs to one query: caps the deadline at the
  /// current budget (a client deadline tighter than the budget is kept).
  void ApplyToQuery(QueryOptions* options) const;

  /// Atomic copy of the current knob values.
  GovernorKnobs knobs() const;

  const GovernorKnobBounds& bounds() const { return options_.bounds; }
  int64_t ticks() const { return ticks_->Value(); }
  int64_t adjustments() const { return adjustments_->Value(); }

 private:
  struct Inputs {
    int64_t queue_depth = 0;       // instantaneous
    int64_t queries_delta = 0;     // since previous tick
    int64_t sheds_delta = 0;
    int64_t misses_delta = 0;
    int64_t trips_delta = 0;
  };

  Inputs ReadInputs();
  /// One decay step: queue depth doubles toward rest, then the deadline
  /// budget doubles until, past 2^20 us, the cap is released — capacity
  /// first. A no-op at rest.
  void RelaxOneStep(const char* why);

  /// Bounded setters: clamp, store, propagate (queue bound), publish the
  /// gauge, and record a governor-adjust event when the value changed.
  void SetQueueDepth(int64_t depth, const char* why);
  void SetDeadlineBudget(int64_t budget_us, const char* why);

  GovernorOptions options_;
  AdmissionQueue* queue_;
  FlightRecorder* recorder_;

  // Live knob values (lock-free reads on the serving path).
  std::atomic<int64_t> knob_queue_depth_;
  std::atomic<int64_t> knob_deadline_budget_us_;

  // Tick-serialized control state.
  std::mutex tick_mu_;
  int64_t calm_ticks_ = 0;
  int64_t prev_queries_ = 0;
  int64_t prev_sheds_ = 0;
  int64_t prev_misses_ = 0;
  int64_t prev_trips_ = 0;

  // Shared-registry handles (inputs) and published state (outputs).
  Counter* queries_in_;
  Counter* sheds_in_;
  Counter* misses_in_;
  Counter* trips_in_;
  Gauge* queue_depth_gauge_;
  Gauge* deadline_budget_gauge_;
  Counter* ticks_;
  Counter* adjustments_;

  // Ticker thread.
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_GOVERNOR_H_

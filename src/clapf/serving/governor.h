#ifndef CLAPF_SERVING_GOVERNOR_H_
#define CLAPF_SERVING_GOVERNOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/serving/admission_queue.h"
#include "clapf/serving/flight_recorder.h"
#include "clapf/util/status.h"

namespace clapf {

/// How the serving knobs are driven — named after the Linux cpufreq
/// governors whose control shapes they borrow.
enum class GovernorPolicy {
  /// Static: knobs stay at their configured rest values forever. This is
  /// exactly the pre-governor behavior and the default.
  kPerformance,
  /// Reactive: on queue pressure (high utilization, sheds, breaker trips,
  /// or a high deadline-miss rate) every knob steps to its most defensive
  /// bound in one tick; once pressure subsides the knobs decay back one
  /// relaxation step per `decay_ticks` calm ticks.
  kOndemand,
  /// Tracking: a proportional controller steers the admission bound toward
  /// a target p99 query latency, estimated from the serving latency
  /// histogram between ticks.
  kSchedutil,
};

/// Stable lowercase name ("performance", "ondemand", "schedutil").
const char* GovernorPolicyName(GovernorPolicy policy);

/// Parses a policy name; InvalidArgument on anything else.
Result<GovernorPolicy> ParseGovernorPolicy(const std::string& name);

/// Declared per-knob bounds. A governor may move a knob anywhere inside its
/// bounds and nowhere else — the bounds are the operator's contract that
/// adaptation can never shed everything or admit the world.
struct GovernorKnobBounds {
  /// Admission-queue depth range. max == 0 inherits the server's configured
  /// max_queue_depth (the rest value).
  int64_t min_queue_depth = 2;
  int64_t max_queue_depth = 0;
  /// Server-imposed per-query deadline budget range, microseconds. The rest
  /// value is `max_deadline_budget_us`, where 0 means "no server-side cap"
  /// (queries keep whatever deadline the client set). Under pressure a
  /// governor may cap budgets as low as `min_deadline_budget_us`.
  int64_t min_deadline_budget_us = 2000;
  int64_t max_deadline_budget_us = 0;
};

/// Current knob values, readable at any time (atomic copies).
struct GovernorKnobs {
  int64_t max_queue_depth = 0;
  int64_t deadline_budget_us = 0;  ///< 0 = no server-side cap
  bool force_packed = false;       ///< override QueryOptions::use_packed on
};

/// ServingGovernor construction knobs.
struct GovernorOptions {
  GovernorPolicy policy = GovernorPolicy::kPerformance;
  GovernorKnobBounds bounds;
  /// Ticker cadence for the dedicated governor thread; <= 0 disables the
  /// thread so only manual Tick() calls (tests, serving-loop piggyback)
  /// drive the control loop.
  int64_t interval_us = 50000;
  /// schedutil: target p99 query latency.
  double latency_target_ms = 5.0;
  /// schedutil: fraction of the depth error corrected per tick.
  double proportional_gain = 0.5;
  /// ondemand: queue utilization (depth / current bound) at or above which
  /// the policy steps to the defensive bounds.
  double queue_high_watermark = 0.75;
  /// ondemand: deadline-miss fraction since the last tick that counts as
  /// pressure on its own.
  double miss_rate_high_watermark = 0.5;
  /// ondemand: consecutive calm ticks before one relaxation step.
  int64_t decay_ticks = 3;
};

/// Periodically reads the serving metrics and adjusts the serving knobs
/// within declared bounds. One governor serves one ModelServer: it owns the
/// control state, publishes every current knob value as a gauge
/// (`serving.governor.queue_depth`, `serving.governor.deadline_budget_us`,
/// `serving.governor.force_packed`), and records every knob movement in the
/// flight recorder, so live exporter scrapes and post-incident dumps both
/// show what adaptation did and when.
///
/// Inputs per tick (all from the shared MetricsRegistry / admission queue):
/// instantaneous queue depth, deltas of the serving outcome counters
/// (queries, sheds, deadline misses, internal errors, breaker trips), and a
/// p99 estimate from the serving.query.latency_us histogram delta.
///
/// Thread-safe: Tick() may run on the internal ticker thread or be called
/// manually (deterministic drills); knobs() and ApplyToQuery() are lock-free
/// reads from any thread. Tick() itself is serialized by an internal mutex.
class ServingGovernor {
 public:
  /// `metrics`, `queue`, and `recorder` must outlive the governor; a zero
  /// bounds.max_queue_depth inherits `initial_queue_depth` as the rest
  /// value. Knobs start at rest (today's static behavior). The ticker
  /// thread is NOT started here — call Start().
  ServingGovernor(const GovernorOptions& options, int64_t initial_queue_depth,
                  MetricsRegistry* metrics, AdmissionQueue* queue,
                  FlightRecorder* recorder);
  ~ServingGovernor();

  ServingGovernor(const ServingGovernor&) = delete;
  ServingGovernor& operator=(const ServingGovernor&) = delete;

  /// Starts the dedicated ticker thread when the policy adapts
  /// (non-performance) and interval_us > 0; otherwise a no-op.
  void Start();

  /// Stops and joins the ticker thread; idempotent.
  void Stop();

  /// One control step: read inputs, move knobs (bounded), publish gauges,
  /// record decisions. Deterministic given the metric state, which is what
  /// the governor drills rely on.
  void Tick();

  /// Applies the current knobs to one query: forces the packed path when
  /// degraded to it, and caps the deadline at the current budget (a client
  /// deadline tighter than the budget is kept).
  void ApplyToQuery(QueryOptions* options) const;

  /// Atomic copy of the current knob values.
  GovernorKnobs knobs() const;

  GovernorPolicy policy() const { return options_.policy; }
  const GovernorKnobBounds& bounds() const { return options_.bounds; }
  int64_t ticks() const { return ticks_->Value(); }
  int64_t adjustments() const { return adjustments_->Value(); }

 private:
  struct Inputs {
    int64_t queue_depth = 0;       // instantaneous
    int64_t queries_delta = 0;     // since previous tick
    int64_t sheds_delta = 0;
    int64_t misses_delta = 0;
    int64_t internal_delta = 0;
    int64_t trips_delta = 0;
    double p99_us = -1.0;          // < 0 when no new latency samples landed
  };

  Inputs ReadInputs();
  void TickOndemand(const Inputs& in);
  void TickSchedutil(const Inputs& in);
  /// One decay step shared by both adaptive policies: queue depth doubles
  /// toward rest, then the deadline budget doubles toward rest, then the
  /// packed override drops — capacity first, quality last.
  void RelaxOneStep(const char* why);

  /// Bounded setters: clamp, store, propagate (queue bound), publish the
  /// gauge, and record a governor-adjust event when the value changed.
  void SetQueueDepth(int64_t depth, const char* why);
  void SetDeadlineBudget(int64_t budget_us, const char* why);
  void SetForcePacked(bool on, const char* why);

  int64_t rest_queue_depth() const { return options_.bounds.max_queue_depth; }
  int64_t rest_deadline_budget_us() const {
    return options_.bounds.max_deadline_budget_us;
  }

  GovernorOptions options_;
  MetricsRegistry* metrics_;
  AdmissionQueue* queue_;
  FlightRecorder* recorder_;

  // Live knob values (lock-free reads on the serving path).
  std::atomic<int64_t> knob_queue_depth_;
  std::atomic<int64_t> knob_deadline_budget_us_;
  std::atomic<bool> knob_force_packed_{false};

  // Tick-serialized control state.
  std::mutex tick_mu_;
  int64_t calm_ticks_ = 0;
  int64_t prev_queries_ = 0;
  int64_t prev_sheds_ = 0;
  int64_t prev_misses_ = 0;
  int64_t prev_internal_ = 0;
  int64_t prev_trips_ = 0;
  HistogramSnapshot prev_latency_;

  // Shared-registry handles (inputs) and published state (outputs).
  Counter* queries_in_;
  Counter* sheds_in_;
  Counter* misses_in_;
  Counter* internal_in_;
  Counter* trips_in_;
  Histogram* latency_in_;
  Gauge* queue_depth_gauge_;
  Gauge* deadline_budget_gauge_;
  Gauge* force_packed_gauge_;
  Counter* ticks_;
  Counter* adjustments_;

  // Ticker thread.
  std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;
};

/// Upper-bound p99-style estimate from a histogram delta: the inclusive
/// upper bound of the bucket holding quantile `q` (twice the last finite
/// bound for the overflow bucket). Returns -1 when the delta holds no
/// samples. Exposed for the governor tests.
double HistogramQuantileUpperBound(const HistogramSnapshot& snapshot,
                                   double q);

/// Bucket-wise difference `cur - prev` (same bounds required); used to
/// derive per-tick latency distributions from cumulative histograms.
HistogramSnapshot HistogramDelta(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur);

}  // namespace clapf

#endif  // CLAPF_SERVING_GOVERNOR_H_

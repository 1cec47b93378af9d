#include "clapf/serving/governor.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace clapf {

namespace {

// Queue utilization (depth / current bound) at or above which a tick counts
// as pressure.
constexpr double kQueueHighWatermark = 0.75;
// Deadline-miss fraction since the previous tick that counts as pressure on
// its own.
constexpr double kMissRateHighWatermark = 0.5;

}  // namespace

ServingGovernor::ServingGovernor(const GovernorOptions& options,
                                 int64_t initial_queue_depth,
                                 MetricsRegistry* metrics,
                                 AdmissionQueue* queue,
                                 FlightRecorder* recorder)
    : options_(options),
      queue_(queue),
      recorder_(recorder),
      queries_in_(metrics->GetCounter("serving.queries_total")),
      sheds_in_(metrics->GetCounter("serving.shed_total")),
      misses_in_(metrics->GetCounter("serving.deadline_exceeded_total")),
      trips_in_(metrics->GetCounter("serving.breaker_trips_total")),
      queue_depth_gauge_(metrics->GetGauge("serving.governor.queue_depth")),
      deadline_budget_gauge_(
          metrics->GetGauge("serving.governor.deadline_budget_us")),
      ticks_(metrics->GetCounter("serving.governor.ticks_total")),
      adjustments_(metrics->GetCounter("serving.governor.adjustments_total")) {
  GovernorKnobBounds& b = options_.bounds;
  if (b.max_queue_depth <= 0) b.max_queue_depth = initial_queue_depth;
  b.min_queue_depth = std::clamp<int64_t>(b.min_queue_depth, 1,
                                          b.max_queue_depth);
  // Knobs start at rest: the static configuration until pressure shows, and
  // no deadline cap.
  knob_queue_depth_.store(b.max_queue_depth, std::memory_order_relaxed);
  knob_deadline_budget_us_.store(0, std::memory_order_relaxed);
  queue_depth_gauge_->Set(static_cast<double>(b.max_queue_depth));
  deadline_budget_gauge_->Set(0.0);
}

ServingGovernor::~ServingGovernor() { Stop(); }

void ServingGovernor::Start() {
  if (options_.interval_us <= 0) return;
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_.joinable()) return;
  ticker_stop_ = false;
  ticker_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    while (!ticker_stop_) {
      ticker_cv_.wait_for(lock,
                          std::chrono::microseconds(options_.interval_us));
      if (ticker_stop_) break;
      lock.unlock();
      Tick();
      lock.lock();
    }
  });
}

void ServingGovernor::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    if (!ticker_.joinable()) return;
    ticker_stop_ = true;
    ticker_cv_.notify_all();
    to_join = std::move(ticker_);
  }
  to_join.join();
}

GovernorKnobs ServingGovernor::knobs() const {
  GovernorKnobs k;
  k.max_queue_depth = knob_queue_depth_.load(std::memory_order_relaxed);
  k.deadline_budget_us =
      knob_deadline_budget_us_.load(std::memory_order_relaxed);
  return k;
}

void ServingGovernor::ApplyToQuery(QueryOptions* options) const {
  const int64_t budget =
      knob_deadline_budget_us_.load(std::memory_order_relaxed);
  if (budget > 0 &&
      (options->deadline.count() <= 0 ||
       options->deadline > std::chrono::microseconds(budget))) {
    options->deadline = std::chrono::microseconds(budget);
  }
}

ServingGovernor::Inputs ServingGovernor::ReadInputs() {
  Inputs in;
  in.queue_depth = queue_->depth();
  const int64_t queries = queries_in_->Value();
  const int64_t sheds = sheds_in_->Value();
  const int64_t misses = misses_in_->Value();
  const int64_t trips = trips_in_->Value();
  in.queries_delta = queries - prev_queries_;
  in.sheds_delta = sheds - prev_sheds_;
  in.misses_delta = misses - prev_misses_;
  in.trips_delta = trips - prev_trips_;
  prev_queries_ = queries;
  prev_sheds_ = sheds;
  prev_misses_ = misses;
  prev_trips_ = trips;
  return in;
}

void ServingGovernor::SetQueueDepth(int64_t depth, const char* why) {
  const GovernorKnobBounds& b = options_.bounds;
  depth = std::clamp(depth, b.min_queue_depth, b.max_queue_depth);
  const int64_t old = knob_queue_depth_.load(std::memory_order_relaxed);
  if (depth == old) return;
  knob_queue_depth_.store(depth, std::memory_order_relaxed);
  queue_->set_max_depth(depth);
  queue_depth_gauge_->Set(static_cast<double>(depth));
  adjustments_->Inc();
  recorder_->Record(FlightEventKind::kGovernorAdjust,
                    std::string("queue_depth ") + why, old, depth);
}

void ServingGovernor::SetDeadlineBudget(int64_t budget_us, const char* why) {
  // 0 is the "no cap" rest value; any finite budget is held at or above the
  // floor.
  if (budget_us != 0) {
    budget_us = std::max(budget_us, options_.bounds.min_deadline_budget_us);
  }
  const int64_t old =
      knob_deadline_budget_us_.load(std::memory_order_relaxed);
  if (budget_us == old) return;
  knob_deadline_budget_us_.store(budget_us, std::memory_order_relaxed);
  deadline_budget_gauge_->Set(static_cast<double>(budget_us));
  adjustments_->Inc();
  recorder_->Record(FlightEventKind::kGovernorAdjust,
                    std::string("deadline_budget_us ") + why, old, budget_us);
}

void ServingGovernor::RelaxOneStep(const char* why) {
  const GovernorKnobBounds& b = options_.bounds;
  const int64_t depth = knob_queue_depth_.load(std::memory_order_relaxed);
  if (depth < b.max_queue_depth) {
    SetQueueDepth(std::min(b.max_queue_depth, depth * 2), why);
    return;
  }
  const int64_t budget =
      knob_deadline_budget_us_.load(std::memory_order_relaxed);
  if (budget != 0) {
    // The uncapped rest value is reached by doubling out the top: past 2^20
    // us (~1s) a cap is indistinguishable from none, so release it.
    int64_t next = budget * 2;
    if (next >= (int64_t{1} << 20)) next = 0;
    SetDeadlineBudget(next, why);
  }
}

void ServingGovernor::Tick() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  ticks_->Inc();
  const Inputs in = ReadInputs();
  const int64_t depth_bound =
      knob_queue_depth_.load(std::memory_order_relaxed);
  const double utilization =
      depth_bound > 0
          ? static_cast<double>(in.queue_depth) / static_cast<double>(depth_bound)
          : 0.0;
  const double miss_rate =
      in.queries_delta > 0
          ? static_cast<double>(in.misses_delta) /
                static_cast<double>(in.queries_delta)
          : 0.0;
  const bool pressure = utilization >= kQueueHighWatermark ||
                        in.sheds_delta > 0 || in.trips_delta > 0 ||
                        miss_rate >= kMissRateHighWatermark;
  if (pressure) {
    // Step every knob to its defensive bound at once: shed early (bounded
    // queueing latency) and cap per-query budgets (bounded tail).
    calm_ticks_ = 0;
    SetDeadlineBudget(options_.bounds.min_deadline_budget_us, "pressure");
    SetQueueDepth(options_.bounds.min_queue_depth, "pressure");
    return;
  }
  if (++calm_ticks_ >= options_.decay_ticks) {
    calm_ticks_ = 0;
    RelaxOneStep("decay");
  }
}

}  // namespace clapf

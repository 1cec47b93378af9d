#ifndef CLAPF_OBS_METRICS_H_
#define CLAPF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace clapf {

/// Number of independent shards behind every counter/histogram. Threads hash
/// onto shards, so concurrent increments from up to this many threads never
/// contend on one cache line. Must be a power of two.
inline constexpr int kMetricShards = 16;

/// Stable per-thread shard index: threads are numbered in creation order and
/// folded onto [0, kMetricShards). Two threads may share a shard (correct,
/// just slightly contended); one thread never migrates between shards.
int MetricShardIndex();

namespace obs_internal {

/// One cache line holding one atomic payload, so neighbouring shards never
/// false-share.
struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

/// Lock-free add for atomic doubles (fetch_add on floating-point atomics is
/// C++20 but not universally lowered well; the CAS loop is portable and the
/// slot is per-thread-sharded so the loop almost never retries).
inline void AtomicAddDouble(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace obs_internal

/// Monotonic event count. The hot path is one relaxed fetch_add on the
/// calling thread's shard; Value() sums the shards (eventually exact — a
/// read concurrent with increments may miss in-flight ones, but every count
/// lands).
class Counter {
 public:
  void Inc(int64_t n = 1) {
    shards_[static_cast<size_t>(MetricShardIndex())].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes the counter. Test/reload support, not for concurrent use with
  /// increments.
  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  obs_internal::CounterShard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (epoch loss, lr scale, queue depth).
/// A single atomic slot: gauges are set at epoch/barrier cadence, not in the
/// per-iteration hot path, so sharding would buy nothing.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of one histogram. `counts[b]` is the number of
/// recorded values v with bounds[b-1] < v <= bounds[b]; the final entry
/// (counts.size() == bounds.size() + 1) is the overflow bucket
/// (v > bounds.back()).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;  ///< total recordings; equals the sum of `counts`
  double sum = 0.0;   ///< sum of recorded values
};

/// Fixed-bucket histogram with per-thread shards. Record() walks the (small,
/// immutable) bound array and does one relaxed increment plus one relaxed
/// add on the calling thread's shard — no locks, no allocation, safe from
/// any number of threads. Bucket semantics match Prometheus: upper bounds
/// are inclusive, plus an implicit +Inf overflow bucket.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::span<const double> bounds);

  void Record(double v) {
    size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    Shard& shard = shards_[static_cast<size_t>(MetricShardIndex())];
    shard.counts[b].fetch_add(1, std::memory_order_relaxed);
    obs_internal::AtomicAddDouble(shard.sum, v);
  }

  HistogramSnapshot Snapshot() const;

  /// Zeroes all shards; bucket bounds are immutable.
  void Reset();

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    // counts.size() == bounds.size() + 1 (overflow bucket last).
    std::vector<std::atomic<int64_t>> counts;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// Default latency bucket bounds in microseconds: 1us .. 5s, roughly
/// logarithmic (1-2-5 per decade).
std::span<const double> LatencyBucketsUs();

/// Power-of-two bucket bounds 1, 2, 4, ... 2^16 for rank/draw-depth style
/// distributions.
std::span<const double> DrawDepthBuckets();

/// Bucket bounds in microseconds for the stages of a model publish: 10us ..
/// 20s at 1-2-5 per decade, then 30s and 60s, so a 1M-item index build
/// still lands in a bucket instead of the overflow.
std::span<const double> PublishStageBucketsUs();

/// What one registry entry is.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one named metric, for exporters.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t counter = 0;         // kCounter
  double gauge = 0.0;          // kGauge
  HistogramSnapshot histogram; // kHistogram
};

/// Named home for counters, gauges, and histograms.
///
/// Usage: resolve handles once (registration takes a mutex), record through
/// the handles forever (lock-free). Handles are stable for the registry's
/// lifetime; re-resolving a name returns the same object, so independent
/// components naturally share a metric by naming it identically.
///
/// Naming scheme (see DESIGN.md "Observability"): lowercase dotted paths,
/// `<subsystem>.<metric>`, with `_total` for monotonic counters and a unit
/// suffix (`_us`, `_depth`) for histograms — e.g. `sgd.updates_total`,
/// `serving.query.latency_us`.
///
/// Thread-safe: registration, recording, and Snapshot() may run
/// concurrently.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, registering it on first use.
  /// Aborts if `name` is already registered as a different kind.
  Counter* GetCounter(const std::string& name);

  /// Returns the gauge named `name`, registering it on first use.
  Gauge* GetGauge(const std::string& name);

  /// Returns the histogram named `name`; `bounds` is consumed on first
  /// registration and must match on later calls (checked).
  Histogram* GetHistogram(const std::string& name,
                          std::span<const double> bounds);

  /// Point-in-time copy of every registered metric, sorted by name (the
  /// deterministic order every exporter relies on).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every metric's value but keeps all registrations (and therefore
  /// every outstanding handle) valid. For tests and counter-reset endpoints.
  void ResetValues();

  /// Number of registered metrics.
  size_t size() const;

  /// Process-wide default registry, used by components that are not handed
  /// an explicit one.
  static MetricsRegistry& Default();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace clapf

#endif  // CLAPF_OBS_METRICS_H_

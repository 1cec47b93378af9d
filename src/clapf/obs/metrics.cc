#include "clapf/obs/metrics.h"

#include <algorithm>

#include "clapf/util/logging.h"

namespace clapf {

int MetricShardIndex() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id & (kMetricShards - 1);
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), shards_(kMetricShards) {
  CLAPF_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CLAPF_CHECK(bounds_[i - 1] < bounds_[i]);
  }
  for (auto& shard : shards_) {
    shard.counts = std::vector<std::atomic<int64_t>>(bounds_.size() + 1);
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < shard.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (int64_t c : snap.counts) snap.count += c;
  return snap;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::span<const double> LatencyBucketsUs() {
  static const double kBounds[] = {1,    2,    5,    10,   20,   50,  100,
                                   200,  500,  1e3,  2e3,  5e3,  1e4, 2e4,
                                   5e4,  1e5,  2e5,  5e5,  1e6,  2e6, 5e6};
  return kBounds;
}

std::span<const double> PublishStageBucketsUs() {
  static const double kBounds[] = {10,  20,  50,  100, 200, 500, 1e3, 2e3,
                                   5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
                                   2e6, 5e6, 1e7, 2e7, 3e7, 6e7};
  return kBounds;
}

std::span<const double> DrawDepthBuckets() {
  static const double kBounds[] = {1,    2,    4,     8,     16,   32,
                                   64,   128,  256,   512,   1024, 2048,
                                   4096, 8192, 16384, 32768, 65536};
  return kBounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    CLAPF_CHECK(it->second.kind == MetricKind::kCounter);
    return it->second.counter.get();
  }
  Entry entry;
  entry.kind = MetricKind::kCounter;
  entry.counter = std::make_unique<Counter>();
  Counter* out = entry.counter.get();
  entries_.emplace(name, std::move(entry));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    CLAPF_CHECK(it->second.kind == MetricKind::kGauge);
    return it->second.gauge.get();
  }
  Entry entry;
  entry.kind = MetricKind::kGauge;
  entry.gauge = std::make_unique<Gauge>();
  Gauge* out = entry.gauge.get();
  entries_.emplace(name, std::move(entry));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    CLAPF_CHECK(it->second.kind == MetricKind::kHistogram);
    Histogram* existing = it->second.histogram.get();
    CLAPF_CHECK(std::equal(bounds.begin(), bounds.end(),
                           existing->bounds().begin(),
                           existing->bounds().end()));
    return existing;
  }
  Entry entry;
  entry.kind = MetricKind::kHistogram;
  entry.histogram = std::make_unique<Histogram>(bounds);
  Histogram* out = entry.histogram.get();
  entries_.emplace(name, std::move(entry));
  return out;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  // std::map iterates in name order, so the export order is deterministic.
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counter = entry.counter->Value();
        break;
      case MetricKind::kGauge:
        snap.gauge = entry.gauge->Value();
        break;
      case MetricKind::kHistogram:
        snap.histogram = entry.histogram->Snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->Reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace clapf

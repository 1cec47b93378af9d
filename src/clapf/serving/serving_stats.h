#ifndef CLAPF_SERVING_SERVING_STATS_H_
#define CLAPF_SERVING_SERVING_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clapf/obs/metrics.h"

namespace clapf {

/// Point-in-time copy of the serving counters, safe to read field-by-field.
struct ServingStatsSnapshot {
  // Per-query outcomes.
  int64_t queries = 0;            ///< every query that reached the server
  int64_t ok = 0;                 ///< answered within budget
  int64_t deadline_exceeded = 0;  ///< expired mid-scan (DeadlineExceeded)
  int64_t shed = 0;               ///< refused at admission (Unavailable)
  int64_t internal_errors = 0;    ///< served-model integrity failures
  int64_t client_errors = 0;      ///< bad request (unknown user id, ...)
  int64_t degraded = 0;           ///< answered by the popularity fallback
  // Model lifecycle.
  int64_t publishes = 0;          ///< candidates that cleared the canary gate
  int64_t canary_rejects = 0;     ///< candidates the gate refused
  int64_t rollbacks = 0;          ///< breaker-driven reverts to the previous snapshot
  int64_t breaker_trips = 0;      ///< circuit-breaker activations
  int64_t probes = 0;             ///< half-open probe windows opened
  int64_t probe_recoveries = 0;   ///< probes that reinstated the tripped snapshot
  int64_t probe_failures = 0;     ///< probes that reverted to the rollback target

  /// One-line counter dump for logs: "queries=12 ok=9 shed=2 ...".
  std::string ToString() const;
};

/// Thin view over the serving-outcome counters in a MetricsRegistry
/// (`serving.queries_total`, `serving.ok_total`, ...). The Record* methods
/// are relaxed sharded increments — observability, not synchronization — so
/// a snapshot taken mid-burst may be internally skewed by in-flight queries
/// but every count is eventually exact. Keeping this class (rather than
/// having callers hit the registry by name) preserves the stats() API and
/// gives serving outcomes a typo-proof, compile-checked vocabulary.
class ServingStats {
 public:
  /// `registry` must be non-null and outlive the stats object.
  explicit ServingStats(MetricsRegistry* registry);

  void RecordQuery() { queries_->Inc(); }
  void RecordOk() { ok_->Inc(); }
  void RecordDeadlineExceeded() { deadline_exceeded_->Inc(); }
  void RecordShed() { shed_->Inc(); }
  void RecordInternalError() { internal_errors_->Inc(); }
  void RecordClientError() { client_errors_->Inc(); }
  void RecordDegraded() { degraded_->Inc(); }
  void RecordPublish() { publishes_->Inc(); }
  void RecordCanaryReject() { canary_rejects_->Inc(); }
  void RecordRollback() { rollbacks_->Inc(); }
  void RecordBreakerTrip() { breaker_trips_->Inc(); }
  void RecordProbe() { probes_->Inc(); }
  void RecordProbeRecovery() { probe_recoveries_->Inc(); }
  void RecordProbeFailure() { probe_failures_->Inc(); }

  ServingStatsSnapshot Snapshot() const;

 private:
  Counter* queries_;
  Counter* ok_;
  Counter* deadline_exceeded_;
  Counter* shed_;
  Counter* internal_errors_;
  Counter* client_errors_;
  Counter* degraded_;
  Counter* publishes_;
  Counter* canary_rejects_;
  Counter* rollbacks_;
  Counter* breaker_trips_;
  Counter* probes_;
  Counter* probe_recoveries_;
  Counter* probe_failures_;
};

/// Point-in-time copy of one shard's serving counters.
struct ShardStatsSnapshot {
  int32_t shard = 0;
  int64_t queries = 0;            ///< queries that consulted this shard
  int64_t internal_errors = 0;    ///< integrity failures attributed here
  int64_t deadline_exceeded = 0;  ///< expiries attributed here
  int64_t degraded = 0;           ///< queries this shard answered by popularity
  int64_t publishes = 0;          ///< slices swapped into this shard
  int64_t canary_rejects = 0;     ///< slices the per-shard gate refused
  int64_t rollbacks = 0;          ///< breaker-driven reverts of this shard
  int64_t breaker_trips = 0;      ///< per-shard breaker activations
  int64_t probes = 0;             ///< half-open probe windows opened here
  int64_t probe_recoveries = 0;   ///< probes that reinstated this shard's slice
  int64_t probe_failures = 0;     ///< probes that reverted this shard's slice

  /// "shard=0 queries=12 internal_errors=0 ..." — one line, stable order.
  std::string ToString() const;
};

/// Per-shard counter bundle in a shared registry, named
/// `serving.shard.<id>.*_total`. Same relaxed-increment semantics as
/// ServingStats.
class ShardServingStats {
 public:
  /// `registry` must be non-null and outlive the stats object.
  ShardServingStats(MetricsRegistry* registry, int32_t shard);

  void RecordQuery() { queries_->Inc(); }
  void RecordInternalError() { internal_errors_->Inc(); }
  void RecordDeadlineExceeded() { deadline_exceeded_->Inc(); }
  void RecordDegraded() { degraded_->Inc(); }
  void RecordPublish() { publishes_->Inc(); }
  void RecordCanaryReject() { canary_rejects_->Inc(); }
  void RecordRollback() { rollbacks_->Inc(); }
  void RecordBreakerTrip() { breaker_trips_->Inc(); }
  void RecordProbe() { probes_->Inc(); }
  void RecordProbeRecovery() { probe_recoveries_->Inc(); }
  void RecordProbeFailure() { probe_failures_->Inc(); }

  ShardStatsSnapshot Snapshot() const;

 private:
  int32_t shard_;
  Counter* queries_;
  Counter* internal_errors_;
  Counter* deadline_exceeded_;
  Counter* degraded_;
  Counter* publishes_;
  Counter* canary_rejects_;
  Counter* rollbacks_;
  Counter* breaker_trips_;
  Counter* probes_;
  Counter* probe_recoveries_;
  Counter* probe_failures_;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_SERVING_STATS_H_

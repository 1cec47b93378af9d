#include "clapf/serving/serving_stats.h"

#include "clapf/util/logging.h"

namespace clapf {

std::string ServingStatsSnapshot::ToString() const {
  std::string out;
  auto field = [&out](const char* name, int64_t value) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("queries", queries);
  field("ok", ok);
  field("deadline_exceeded", deadline_exceeded);
  field("shed", shed);
  field("internal_errors", internal_errors);
  field("client_errors", client_errors);
  field("degraded", degraded);
  field("publishes", publishes);
  field("canary_rejects", canary_rejects);
  field("rollbacks", rollbacks);
  field("breaker_trips", breaker_trips);
  field("probes", probes);
  field("probe_recoveries", probe_recoveries);
  field("probe_failures", probe_failures);
  return out;
}

std::string ShardStatsSnapshot::ToString() const {
  std::string out;
  auto field = [&out](const char* name, int64_t value) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("shard", shard);
  field("queries", queries);
  field("internal_errors", internal_errors);
  field("deadline_exceeded", deadline_exceeded);
  field("degraded", degraded);
  field("publishes", publishes);
  field("canary_rejects", canary_rejects);
  field("rollbacks", rollbacks);
  field("breaker_trips", breaker_trips);
  field("probes", probes);
  field("probe_recoveries", probe_recoveries);
  field("probe_failures", probe_failures);
  return out;
}

ShardServingStats::ShardServingStats(MetricsRegistry* registry, int32_t shard)
    : shard_(shard) {
  CLAPF_CHECK(registry != nullptr);
  CLAPF_CHECK(shard >= 0);
  const std::string prefix = "serving.shard." + std::to_string(shard) + ".";
  queries_ = registry->GetCounter(prefix + "queries_total");
  internal_errors_ = registry->GetCounter(prefix + "internal_errors_total");
  deadline_exceeded_ =
      registry->GetCounter(prefix + "deadline_exceeded_total");
  degraded_ = registry->GetCounter(prefix + "degraded_total");
  publishes_ = registry->GetCounter(prefix + "publishes_total");
  canary_rejects_ = registry->GetCounter(prefix + "canary_rejects_total");
  rollbacks_ = registry->GetCounter(prefix + "rollbacks_total");
  breaker_trips_ = registry->GetCounter(prefix + "breaker_trips_total");
  probes_ = registry->GetCounter(prefix + "halfopen.probes_total");
  probe_recoveries_ =
      registry->GetCounter(prefix + "halfopen.probe_recoveries_total");
  probe_failures_ =
      registry->GetCounter(prefix + "halfopen.probe_failures_total");
}

ShardStatsSnapshot ShardServingStats::Snapshot() const {
  ShardStatsSnapshot s;
  s.shard = shard_;
  s.queries = queries_->Value();
  s.internal_errors = internal_errors_->Value();
  s.deadline_exceeded = deadline_exceeded_->Value();
  s.degraded = degraded_->Value();
  s.publishes = publishes_->Value();
  s.canary_rejects = canary_rejects_->Value();
  s.rollbacks = rollbacks_->Value();
  s.breaker_trips = breaker_trips_->Value();
  s.probes = probes_->Value();
  s.probe_recoveries = probe_recoveries_->Value();
  s.probe_failures = probe_failures_->Value();
  return s;
}

ServingStats::ServingStats(MetricsRegistry* registry) {
  CLAPF_CHECK(registry != nullptr);
  queries_ = registry->GetCounter("serving.queries_total");
  ok_ = registry->GetCounter("serving.ok_total");
  deadline_exceeded_ = registry->GetCounter("serving.deadline_exceeded_total");
  shed_ = registry->GetCounter("serving.shed_total");
  internal_errors_ = registry->GetCounter("serving.internal_errors_total");
  client_errors_ = registry->GetCounter("serving.client_errors_total");
  degraded_ = registry->GetCounter("serving.degraded_total");
  publishes_ = registry->GetCounter("serving.publishes_total");
  canary_rejects_ = registry->GetCounter("serving.canary_rejects_total");
  rollbacks_ = registry->GetCounter("serving.rollbacks_total");
  breaker_trips_ = registry->GetCounter("serving.breaker_trips_total");
  probes_ = registry->GetCounter("serving.halfopen.probes_total");
  probe_recoveries_ =
      registry->GetCounter("serving.halfopen.probe_recoveries_total");
  probe_failures_ =
      registry->GetCounter("serving.halfopen.probe_failures_total");
}

ServingStatsSnapshot ServingStats::Snapshot() const {
  ServingStatsSnapshot s;
  s.queries = queries_->Value();
  s.ok = ok_->Value();
  s.deadline_exceeded = deadline_exceeded_->Value();
  s.shed = shed_->Value();
  s.internal_errors = internal_errors_->Value();
  s.client_errors = client_errors_->Value();
  s.degraded = degraded_->Value();
  s.publishes = publishes_->Value();
  s.canary_rejects = canary_rejects_->Value();
  s.rollbacks = rollbacks_->Value();
  s.breaker_trips = breaker_trips_->Value();
  s.probes = probes_->Value();
  s.probe_recoveries = probe_recoveries_->Value();
  s.probe_failures = probe_failures_->Value();
  return s;
}

}  // namespace clapf

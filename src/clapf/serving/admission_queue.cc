#include "clapf/serving/admission_queue.h"

#include <chrono>
#include <thread>
#include <utility>

#include "clapf/util/fault_injection.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {
// How long an injected kServeQueueStall parks a worker before its task:
// long enough that a burst of concurrent requests piles past max_depth.
constexpr std::chrono::milliseconds kQueueStallSleep(20);
}  // namespace

AdmissionQueue::AdmissionQueue(int num_threads, int64_t max_depth,
                               MetricsRegistry* metrics)
    : pool_(num_threads), max_depth_(max_depth) {
  CLAPF_CHECK(max_depth >= 1);
  if (metrics == nullptr) {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    metrics = owned_registry_.get();
  }
  admitted_ = metrics->GetCounter("serving.admission.admitted_total");
  shed_ = metrics->GetCounter("serving.admission.shed_total");
}

Status AdmissionQueue::Submit(std::function<void()> task) {
  auto wrapped = [task = std::move(task)]() mutable {
    FaultInjector& faults = FaultInjector::Instance();
    if (faults.armed() && faults.ShouldFire(FaultPoint::kServeQueueStall)) {
      std::this_thread::sleep_for(kQueueStallSleep);
    }
    task();
  };
  const int64_t bound = max_depth();
  if (!pool_.TrySubmit(std::move(wrapped), bound)) {
    shed_->Inc();
    return Status::Unavailable(
        "admission queue full (" + std::to_string(bound) +
        " in flight); request shed");
  }
  admitted_->Inc();
  return Status::OK();
}

void AdmissionQueue::Wait() { pool_.Wait(); }

}  // namespace clapf

#include "clapf/serving/admission_queue.h"

#include <chrono>
#include <string>
#include <thread>

#include "clapf/util/fault_injection.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {
// How long an injected kServeQueueStall parks an admitted caller in its run
// slot before it serves: long enough that a burst of concurrent requests
// piles past max_depth.
constexpr std::chrono::milliseconds kQueueStallSleep(20);
}  // namespace

AdmissionQueue::AdmissionQueue(int num_threads, int64_t max_depth,
                               MetricsRegistry* metrics)
    : num_threads_(num_threads), max_depth_(max_depth) {
  CLAPF_CHECK(num_threads >= 1);
  CLAPF_CHECK(max_depth >= 1);
  if (metrics == nullptr) {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    metrics = owned_registry_.get();
  }
  admitted_ = metrics->GetCounter("serving.admission.admitted_total");
  shed_ = metrics->GetCounter("serving.admission.shed_total");
}

Status AdmissionQueue::Enter() {
  const int64_t bound = max_depth();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (next_ticket_ - finished_ >= bound) {
      lock.unlock();
      shed_->Inc();
      return Status::Unavailable(
          "admission queue full (" + std::to_string(bound) +
          " in flight); request shed");
    }
    const int64_t ticket = next_ticket_++;
    admitted_->Inc();
    if (ticket - finished_ >= num_threads_) {
      std::condition_variable turn;
      waiters_.push_back(&turn);
      turn.wait(lock, [&] { return ticket - finished_ < num_threads_; });
    }
  }
  FaultInjector& faults = FaultInjector::Instance();
  if (faults.armed() && faults.ShouldFire(FaultPoint::kServeQueueStall)) {
    std::this_thread::sleep_for(kQueueStallSleep);
  }
  return Status::OK();
}

void AdmissionQueue::Leave() {
  std::lock_guard<std::mutex> lock(mu_);
  ++finished_;
  // The freed slot belongs to the oldest waiter's ticket: wake that caller
  // alone. It is woken under the lock, so its condition variable outlives
  // the notify.
  if (!waiters_.empty()) {
    waiters_.front()->notify_one();
    waiters_.pop_front();
  }
}

int64_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ticket_ - finished_;
}

}  // namespace clapf

#include "clapf/recommender.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "clapf/core/ranker.h"
#include "clapf/model/model_io.h"
#include "clapf/obs/trace_span.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

namespace {

using Clock = std::chrono::steady_clock;

// Per-thread exclusion bitmap. Reusing it across queries (and across users
// within a batch shard) removes the per-query allocation from the serving
// hot path; after the first query on a thread the only O(m) work left
// outside scoring is the bitmap reset.
std::vector<bool>& LocalExcluded() {
  thread_local std::vector<bool> excluded;
  return excluded;
}

}  // namespace

Recommender::Recommender(FactorModel model, Dataset history)
    : model_(std::move(model)), history_(std::move(history)) {
  auto counts = history_.ItemPopularity();
  popularity_.assign(counts.begin(), counts.end());
}

Result<Recommender> Recommender::Create(FactorModel model, Dataset history) {
  if (model.num_users() != history.num_users() ||
      model.num_items() != history.num_items()) {
    return Status::InvalidArgument(
        "model and history dimensions disagree: model " +
        std::to_string(model.num_users()) + "x" +
        std::to_string(model.num_items()) + ", history " +
        std::to_string(history.num_users()) + "x" +
        std::to_string(history.num_items()));
  }
  return Recommender(std::move(model), std::move(history));
}

Result<Recommender> Recommender::Load(const std::string& model_path,
                                      Dataset history) {
  auto model = LoadModel(model_path);
  if (!model.ok()) return model.status();
  return Create(*std::move(model), std::move(history));
}

Result<std::vector<ScoredItem>> Recommender::RecommendOne(
    UserId u, size_t k, const QueryOptions& options,
    const std::optional<Clock::time_point>& deadline) const {
  k = ClampK(k, model_.num_items());
  if (k == 0) return std::vector<ScoredItem>{};

  const bool cold = history_.NumItemsOf(u) == 0;
  if (cold && !options.cold_start_fallback) return std::vector<ScoredItem>{};

  std::vector<bool>& excluded = LocalExcluded();
  excluded.assign(static_cast<size_t>(model_.num_items()), false);
  for (ItemId i : history_.ItemsOf(u)) {
    excluded[static_cast<size_t>(i)] = true;
  }
  for (ItemId i : options.exclude) {
    if (i >= 0 && i < model_.num_items()) {
      excluded[static_cast<size_t>(i)] = true;
    }
  }

  std::vector<ScoredItem> top;
  if (cold) {
    // Cold-start: rank by popularity straight from the shared table (no
    // scoring work, so no deadline polling).
    top = SelectTopK(popularity_, excluded, k);
  } else {
    // min_items inflates the ANN widening floor by everything the scan may
    // skip, so the shortlist can always fill k slots.
    const size_t min_items = k +
                             static_cast<size_t>(history_.NumItemsOf(u)) +
                             options.exclude.size();
    RetrievalPath path = RetrievalPath::kNone;
    auto got = Retrieve({&model_, packed_.get(), ivf_.get()}, u, k, &excluded,
                        min_items, options, deadline, nullptr,
                        ann_metrics_ ? &*ann_metrics_ : nullptr, &path);
    if (ann_metrics_) ann_metrics_->CountQuery(options, path);
    if (!got.ok()) return got;
    top = *std::move(got);
  }
  ApplyMinScore(options.min_score, &top);
  return top;
}

Status Recommender::EnablePacked(int32_t verify_sample_users) {
  auto packed = std::make_shared<PackedSnapshot>(PackedSnapshot::Build(model_));
  if (verify_sample_users > 0) {
    Status agree = VerifyPackedAgreement(model_, *packed, verify_sample_users,
                                         "EnablePacked");
    if (!agree.ok()) return agree;
  }
  packed_ = std::move(packed);
  return Status::OK();
}

Status Recommender::EnableIvf(const IvfOptions& options,
                              int32_t verify_sample_users,
                              double verify_recall_floor, size_t recall_k) {
  if (packed_ == nullptr) {
    Status base = EnablePacked(0);
    if (!base.ok()) return base;
  }
  IvfGateOptions gate;
  gate.ivf = options;
  gate.verify = verify_sample_users > 0;
  gate.recall_floor = verify_recall_floor;
  gate.recall_users = verify_sample_users;
  gate.recall_k = static_cast<int32_t>(recall_k);
  auto ivf = BuildGatedIvf(model_, *packed_, gate, /*previous=*/nullptr,
                           "EnableIvf", /*metrics=*/nullptr);
  if (!ivf.ok()) return ivf.status();
  ivf_ = *std::move(ivf);
  return Status::OK();
}

void Recommender::SetMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    queries_metric_ = nullptr;
    deadline_metric_ = nullptr;
    latency_metric_ = nullptr;
    ann_metrics_.reset();
    return;
  }
  queries_metric_ = registry->GetCounter("ranker.queries_total");
  deadline_metric_ = registry->GetCounter("ranker.deadline_exceeded_total");
  latency_metric_ =
      registry->GetHistogram("ranker.query.latency_us", LatencyBucketsUs());
  ann_metrics_.emplace(registry);
}

Result<std::vector<ScoredItem>> Recommender::Recommend(
    UserId u, size_t k, const QueryOptions& options) const {
  if (u < 0 || u >= model_.num_users()) {
    return Status::OutOfRange("unknown user id " + std::to_string(u));
  }
  if (queries_metric_ != nullptr) queries_metric_->Inc();
  TraceSpan span(latency_metric_);
  auto out = RecommendOne(u, k, options, DeadlineFrom(options));
  span.Stop();
  if (deadline_metric_ != nullptr &&
      out.status().code() == StatusCode::kDeadlineExceeded) {
    deadline_metric_->Inc();
  }
  return out;
}

Result<BatchReply> Recommender::RecommendBatchPartial(
    std::span<const UserId> users, size_t k,
    const QueryOptions& options) const {
  // Validate the whole batch before doing any scoring work so a bad id
  // cannot leave a half-filled result.
  for (UserId u : users) {
    if (u < 0 || u >= model_.num_users()) {
      return Status::OutOfRange("unknown user id " + std::to_string(u));
    }
  }
  BatchReply reply;
  reply.results.resize(users.size());
  reply.complete.assign(users.size(), 0);
  if (users.empty()) return reply;

  // One absolute deadline for the whole batch; an expiry seen by any shard
  // stops the others at their next user boundary.
  const std::optional<Clock::time_point> deadline = DeadlineFrom(options);
  std::atomic<bool> expired{false};

  auto run_range = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (expired.load(std::memory_order_relaxed)) return;
      auto one = RecommendOne(users[i], k, options, deadline);
      if (!one.ok()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      reply.results[i] = *std::move(one);
      reply.complete[i] = 1;
    }
  };

  int threads = options.num_threads > 0
                    ? options.num_threads
                    : static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency()));
  threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(threads), users.size()));

  if (threads == 1) {
    run_range(0, users.size());
  } else {
    // Contiguous shards, one task per thread; each task uses its thread's
    // scratch and writes disjoint result slots, so no synchronization beyond
    // the pool's completion barrier (and the shared expiry flag) is needed.
    ThreadPool pool(threads);
    const size_t shard = (users.size() + static_cast<size_t>(threads) - 1) /
                         static_cast<size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const size_t lo = static_cast<size_t>(t) * shard;
      const size_t hi = std::min(users.size(), lo + shard);
      if (lo >= hi) break;
      pool.Submit([&run_range, lo, hi] { run_range(lo, hi); });
    }
    pool.Wait();
  }

  for (uint8_t c : reply.complete) reply.num_complete += c;
  reply.deadline_exceeded = reply.num_complete < users.size();
  if (queries_metric_ != nullptr) {
    queries_metric_->Inc(static_cast<int64_t>(users.size()));
    if (reply.deadline_exceeded && deadline_metric_ != nullptr) {
      deadline_metric_->Inc();
    }
  }
  return reply;
}

Result<std::vector<std::vector<ScoredItem>>> Recommender::RecommendBatch(
    std::span<const UserId> users, size_t k,
    const QueryOptions& options) const {
  auto reply = RecommendBatchPartial(users, k, options);
  if (!reply.ok()) return reply.status();
  if (reply->deadline_exceeded) {
    return Status::DeadlineExceeded(
        "batch expired after " + std::to_string(reply->num_complete) + "/" +
        std::to_string(users.size()) + " users");
  }
  return std::move(reply->results);
}

Result<double> Recommender::Score(UserId u, ItemId i) const {
  if (u < 0 || u >= model_.num_users()) {
    return Status::OutOfRange("unknown user id " + std::to_string(u));
  }
  if (i < 0 || i >= model_.num_items()) {
    return Status::OutOfRange("unknown item id " + std::to_string(i));
  }
  return model_.Score(u, i);
}

Status Recommender::Save(const std::string& model_path) const {
  // Atomic publish: a crash mid-save can never leave a torn model file where
  // a serving process would pick it up.
  return SaveModelAtomic(model_, model_path);
}

}  // namespace clapf

#include "clapf/serving/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <latch>
#include <limits>
#include <numeric>
#include <utility>

#include "clapf/core/ranker.h"
#include "clapf/data/split.h"
#include "clapf/eval/sampled_evaluator.h"
#include "clapf/model/model_io.h"
#include "clapf/obs/trace_span.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/logging.h"
#include "clapf/util/top_k.h"

namespace clapf {

namespace {

using Clock = std::chrono::steady_clock;

// The canary gate's fixed samples (CanaryOptions): the AUC probe re-holds
// out this share of the serving history and draws this many negatives per
// probe case; the packed agreement compares every item of about this many
// evenly spaced users.
constexpr double kAucProbeFraction = 0.1;
constexpr int32_t kAucProbeNegatives = 20;
constexpr int32_t kPackedAgreementUsers = 64;

// Scores the whole catalog through the slices a publish built — through
// each slice's float copy when packed serving is on, so the canary's
// sampled-AUC probe vets the kernels production queries run.
class SliceRanker final : public Ranker {
 public:
  SliceRanker(const ShardMap& map,
              const std::vector<std::shared_ptr<ShardSlice>>& slices)
      : map_(map), slices_(slices) {}

  void ScoreItems(UserId u, std::vector<double>* scores) const override {
    scores->resize(static_cast<size_t>(map_.num_items()));
    std::vector<double> local;
    for (size_t s = 0; s < slices_.size(); ++s) {
      ScoreSlice(*slices_[s], u, &local,
                 scores->data() + map_.begin(static_cast<int32_t>(s)));
    }
  }

 private:
  // Scores `slice`'s items for `u` into out[0, slice items): the exact
  // doubles without a float copy, else the copy's lanes (into `local`),
  // each score written to the slot of the item its lane holds.
  static void ScoreSlice(const ShardSlice& slice, UserId u,
                         std::vector<double>* local, double* out) {
    const PackedSnapshot* packed = slice.served_packed();
    if (packed == nullptr) {
      slice.model.ScoreAllItems(u, local);
      std::copy(local->begin(), local->end(), out);
      return;
    }
    local->resize(static_cast<size_t>(packed->num_items()));
    packed->ScoreItemRange(u, 0, packed->num_items(), local);
    const int32_t* lane_item = slice.served_map();
    for (size_t l = 0; l < local->size(); ++l) {
      out[lane_item != nullptr ? static_cast<size_t>(lane_item[l]) : l] =
          (*local)[l];
    }
  }

  const ShardMap& map_;
  const std::vector<std::shared_ptr<ShardSlice>>& slices_;
};

}  // namespace

ModelServer::ModelServer(Dataset history, const ServerOptions& options)
    : history_(std::move(history)),
      options_(options),
      shard_map_(ShardMap::Create(history_.num_items(), options.num_shards)),
      query_latency_(metrics_.GetHistogram("serving.query.latency_us",
                                           LatencyBucketsUs())),
      batch_latency_(metrics_.GetHistogram("serving.batch.latency_us",
                                           LatencyBucketsUs())),
      retrieval_metrics_(&metrics_),
      publish_stages_(&metrics_),
      queue_(std::max(1, options.num_threads), options.max_queue_depth,
             &metrics_),
      stats_(&metrics_) {
  auto counts = history_.ItemPopularity();
  popularity_.assign(counts.begin(), counts.end());
  shards_.reserve(static_cast<size_t>(num_shards()));
  for (int32_t s = 0; s < num_shards(); ++s) {
    shards_.emplace_back(s, shard_map_.begin(s), shard_map_.end(s), history_,
                         popularity_);
    shard_recorders_.push_back(std::make_unique<FlightRecorder>());
    shard_stats_.push_back(
        std::make_unique<ShardServingStats>(&metrics_, s));
  }
  breaker_windows_.resize(static_cast<size_t>(num_shards()));
  if (options_.canary.min_auc > 0.0) {
    TrainTestSplit split = SplitRandom(history_, 1.0 - kAucProbeFraction,
                                       options_.canary.seed);
    probe_train_ = std::move(split.train);
    probe_test_ = std::move(split.test);
  }
  if (num_shards() > 1) {
    const int threads = options_.scatter_threads > 0
                            ? options_.scatter_threads
                            : std::min(num_shards(), 4);
    scatter_pool_ = std::make_unique<ThreadPool>(threads);
  }
  if (options_.governor.has_value()) {
    governor_ = std::make_unique<ServingGovernor>(
        *options_.governor, options_.max_queue_depth, &metrics_, &queue_,
        &recorder_);
    governor_->Start();
  }
}

ModelServer::~ModelServer() {
  if (governor_ != nullptr) governor_->Stop();
}

void ModelServer::RecordShardEvent(int32_t shard, FlightEventKind kind,
                                   const std::string& detail, int64_t a,
                                   int64_t b, double x) {
  recorder_.Record(kind, detail, a, b, x);
  shard_recorders_[static_cast<size_t>(shard)]->Record(kind, detail, a, b, x);
}

Result<FactorModel> ModelServer::ResolveCandidate(PublishRequest* request) {
  if (request->model.has_value() && !request->path.empty()) {
    return Status::InvalidArgument(
        "publish request carries both an in-memory model and a file path");
  }
  if (request->model.has_value()) return *std::move(request->model);
  if (request->path.empty()) {
    return Status::InvalidArgument(
        "publish request carries neither a model nor a file path");
  }
  auto model = LoadModel(request->path);  // CRC-verified by the wire format
  if (!model.ok()) {
    stats_.RecordCanaryReject();
    recorder_.Record(FlightEventKind::kCanaryReject,
                     model.status().message());
    CLAPF_LOG(Warning) << "candidate file rejected, prior slices keep "
                          "serving: "
                       << model.status().ToString();
  }
  return model;
}

Status ModelServer::PublishModel(PublishRequest request) {
  const int32_t target = request.shard;
  if (target != kAllShards && (target < 0 || target >= num_shards())) {
    return Status::InvalidArgument(
        "publish targets shard " + std::to_string(target) +
        " outside [0, " + std::to_string(num_shards()) + ")");
  }
  auto resolved = ResolveCandidate(&request);
  if (!resolved.ok()) return resolved.status();
  return PublishCandidate(*resolved, &*resolved, target);
}

Status ModelServer::PublishModel(const FactorModel& candidate) {
  return PublishCandidate(candidate, nullptr, kAllShards);
}

Status ModelServer::PublishModel(FactorModel&& candidate) {
  return PublishCandidate(candidate, &candidate, kAllShards);
}

Status ModelServer::PublishCandidate(const FactorModel& borrowed,
                                     FactorModel* owned, int32_t target) {
  const FactorModel* cand = &borrowed;
  std::optional<FactorModel> corrupted;
  FaultInjector& faults = FaultInjector::Instance();
  if (faults.armed() &&
      faults.ShouldFire(FaultPoint::kServeCorruptCandidate) &&
      !cand->user_factor_data().empty()) {
    if (owned != nullptr) {
      corrupted.emplace(std::move(*owned));
    } else {
      corrupted.emplace(*cand);
    }
    corrupted->mutable_user_factor_data()[0] =
        std::numeric_limits<double>::quiet_NaN();
    cand = owned = &*corrupted;
  }
  const FactorModel& candidate = *cand;

  const std::string context = "serving candidate";
  if (candidate.num_users() != history_.num_users() ||
      candidate.num_items() != history_.num_items()) {
    // A shard publish still ships a FULL-catalog candidate; the server does
    // the slicing. Anything else is a routing bug worth failing loudly.
    Status bad = Status::InvalidArgument(
        context + " dimensions (" + std::to_string(candidate.num_users()) +
        "x" + std::to_string(candidate.num_items()) +
        ") disagree with serving history (" +
        std::to_string(history_.num_users()) + "x" +
        std::to_string(history_.num_items()) + ")");
    stats_.RecordCanaryReject();
    recorder_.Record(FlightEventKind::kCanaryReject, bad.message());
    return bad;
  }

  std::vector<int32_t> targets;
  if (target == kAllShards) {
    targets.resize(static_cast<size_t>(num_shards()));
    std::iota(targets.begin(), targets.end(), 0);
  } else {
    targets.push_back(target);
  }

  if (target == kAllShards) {
    // Whole-candidate integrity check (shape + tiled finite scan), once,
    // before any slicing, on the publish's thread budget.
    TraceSpan span(publish_stages_.integrity);
    Status whole =
        VerifyModelIntegrity(candidate, context, options_.ivf.build_threads);
    span.Stop();
    if (!whole.ok()) {
      stats_.RecordCanaryReject();
      recorder_.Record(FlightEventKind::kCanaryReject, whole.message());
      CLAPF_LOG(Warning) << "canary gate rejected candidate, prior slices "
                            "keep serving: "
                         << whole.ToString();
      return whole;
    }
  }

  // Build (and gate) every target slice BEFORE swapping any: an all-shard
  // publish is all-or-nothing, and a failed one-shard publish leaves that
  // shard's prior slice serving.
  const bool ann_enabled = options_.packed && options_.ann;
  IvfGateOptions ann;
  if (ann_enabled) {
    ann.ivf = options_.ivf;
    ann.recall_floor = options_.canary.ann_recall_floor;
    ann.recall_users = options_.canary.ann_recall_users;
  }
  std::vector<std::shared_ptr<const ShardSlice>> prev_slices(targets.size());
  if (options_.packed) {
    // Each shard's serving slice is the baseline of its packed agreement
    // and, with ann, seeds its incremental index rebuild; read the current
    // chain cut once so every target shard's previous slice comes from the
    // same publish generation.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (!chains_.empty()) {
      for (size_t i = 0; i < targets.size(); ++i) {
        prev_slices[i] = chains_[static_cast<size_t>(targets[i])].current;
      }
    }
  }
  std::vector<std::shared_ptr<ShardSlice>> built(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const int32_t s = targets[i];
    const ModelShard& shard = shards_[static_cast<size_t>(s)];
    const std::string shard_context =
        context + " (shard " + std::to_string(s) + ")";
    const bool verify_integrity = target != kAllShards;
    // A shard covering the whole catalog adopts a candidate the server
    // owns, so the one-shard server holds a single copy of the model; any
    // other slice is copied out of the candidate, with no full copy first.
    auto slice =
        owned != nullptr && shard.num_local_items() == candidate.num_items()
            ? shard.BuildSlice(std::move(*owned), options_.packed,
                               verify_integrity, kPackedAgreementUsers,
                               shard_context, ann_enabled ? &ann : nullptr,
                               prev_slices[i].get(), &metrics_,
                               options_.ivf.build_threads, &publish_stages_)
            : shard.BuildSliceFrom(
                  candidate, options_.packed, verify_integrity,
                  kPackedAgreementUsers, shard_context,
                  ann_enabled ? &ann : nullptr, prev_slices[i].get(),
                  &metrics_, options_.ivf.build_threads, &publish_stages_);
    if (!slice.ok()) {
      stats_.RecordCanaryReject();
      shard_stats_[static_cast<size_t>(s)]->RecordCanaryReject();
      RecordShardEvent(s, FlightEventKind::kCanaryReject,
                       slice.status().message(), 0, s);
      CLAPF_LOG(Warning) << "shard " << s
                         << " canary gate rejected candidate, prior slice "
                            "keeps serving: "
                         << slice.status().ToString();
      return slice.status();
    }
    built[i] = *std::move(slice);
  }
  // Share of each slice's (sampled user, block) pairs its agreement check
  // compared, for the publish events: 1 for a full check, near the changed
  // share on the delta, 0 when no check ran.
  std::vector<double> checked_share(targets.size(), 0.0);
  for (size_t i = 0; i < targets.size(); ++i) {
    const auto& stamp = built[i]->agreement;
    if (stamp && stamp->pairs_total > 0) {
      checked_share[i] = static_cast<double>(stamp->pairs_checked) /
                         static_cast<double>(stamp->pairs_total);
    }
  }

  if (target == kAllShards && options_.canary.min_auc > 0.0 &&
      probe_test_.num_interactions() > 0) {
    // Sampled-AUC probe through the built slices: a healthy model (trained
    // on data containing the probe) ranks it far above sampled negatives,
    // while a corrupt or mistrained candidate scores ~0.5.
    TraceSpan span(publish_stages_.auc_probe);
    SampledEvaluator eval(&probe_train_, &probe_test_, kAucProbeNegatives,
                          options_.canary.seed);
    const double auc = eval.Evaluate(SliceRanker(shard_map_, built), {5}).auc;
    span.Stop();
    if (auc < options_.canary.min_auc) {
      Status low = Status::FailedPrecondition(
          context + " failed canary: sampled AUC " + std::to_string(auc) +
          " below floor " + std::to_string(options_.canary.min_auc));
      stats_.RecordCanaryReject();
      recorder_.Record(FlightEventKind::kCanaryReject, low.message());
      CLAPF_LOG(Warning) << "canary gate rejected candidate, prior slices "
                            "keep serving: "
                         << low.ToString();
      return low;
    }
  }

  int64_t published_version = 0;
  // The slices the swap displaces (a 1M-item ANN slice holds ~450 MB:
  // model, repack, codes, tables) are freed after snapshot_mu_ is
  // released, so no query's AcquireCut waits on their destructors.
  std::vector<std::shared_ptr<const ShardSlice>> displaced;
  {
    // One mutex hold swaps every target: readers cut either the old model
    // or the new one, never a mix of the two from one publish.
    TraceSpan span(publish_stages_.swap);
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    published_version = next_version_++;
    if (chains_.empty()) chains_.resize(static_cast<size_t>(num_shards()));
    for (size_t i = 0; i < targets.size(); ++i) {
      built[i]->version = published_version;
      ShardChain& chain = chains_[static_cast<size_t>(targets[i])];
      displaced.push_back(
          std::exchange(chain.previous, std::move(chain.current)));
      chain.current = std::move(built[i]);
      // A fresh slice supersedes any pending half-open probe of this shard:
      // the stashed slice is obsolete and its verdict would be moot.
      displaced.push_back(std::move(chain.tripped));
      displaced.push_back(std::move(chain.probe_fallback));
    }
  }
  {
    TraceSpan span(publish_stages_.release);
    displaced.clear();
  }
  stats_.RecordPublish();
  for (size_t i = 0; i < targets.size(); ++i) {
    const int32_t s = targets[i];
    shard_stats_[static_cast<size_t>(s)]->RecordPublish();
    RecordShardEvent(s, FlightEventKind::kPublish,
                     "slice cleared the canary gate", published_version, s,
                     checked_share[i]);
  }
  {
    // The swapped shards get fresh breaker windows: errors charged to their
    // old slices must not trip the breaker on the new ones. Untouched
    // shards keep their windows — their slices did not change.
    std::lock_guard<std::mutex> lock(breaker_mu_);
    for (int32_t s : targets) {
      breaker_windows_[static_cast<size_t>(s)] = BreakerWindow{};
    }
  }
  return Status::OK();
}

std::vector<std::shared_ptr<const ShardSlice>> ModelServer::AcquireCut()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  std::vector<std::shared_ptr<const ShardSlice>> cut(chains_.size());
  for (size_t s = 0; s < cut.size(); ++s) cut[s] = chains_[s].current;
  return cut;
}

Result<std::vector<ScoredItem>> ModelServer::ServeDegraded(
    UserId u, size_t k, const QueryOptions& options) const {
  if (u < 0 || u >= history_.num_users()) {
    return Status::OutOfRange("unknown user id " + std::to_string(u));
  }
  k = ClampK(k, history_.num_items());
  if (k == 0) return std::vector<ScoredItem>{};
  // A cold user who opted out of the fallback gets nothing, whether the
  // popularity answer stands in for the model (never published, every
  // shard dark) or is the cold-start answer itself.
  if (history_.NumItemsOf(u) == 0 && !options.cold_start_fallback) {
    return std::vector<ScoredItem>{};
  }
  ExclusionBitmap& excluded =
      ExclusionBitmap::ForThread(static_cast<size_t>(history_.num_items()));
  for (ItemId i : history_.ItemsOf(u)) excluded.Set(static_cast<size_t>(i));
  for (ItemId i : options.exclude) {
    if (i >= 0 && i < history_.num_items()) {
      excluded.Set(static_cast<size_t>(i));
    }
  }
  std::vector<ScoredItem> top = SelectTopK(popularity_, excluded.bits(), k);
  ApplyMinScore(options.min_score, &top);
  return top;
}

Result<std::vector<ScoredItem>> ModelServer::ServeUser(
    UserId u, size_t k, const QueryOptions& options,
    const std::optional<Clock::time_point>& deadline,
    const std::vector<std::shared_ptr<const ShardSlice>>& cut,
    QueryAttribution* attr) {
  k = ClampK(k, history_.num_items());
  if (k == 0) return std::vector<ScoredItem>{};

  std::vector<ScoredItem> top;
  const bool cold = history_.NumItemsOf(u) == 0;
  if (cold) {
    // Cold-start is a GLOBAL decision made here at the gather side: per-
    // shard history slices would make a globally-warm user look cold in
    // every shard where they happen to own no interactions, and every shard
    // count must answer alike.
    top = *ServeDegraded(u, k, options);  // `u` is valid: cannot fail
  } else {
    // Scatter: every shard is consulted (the exact top-k needs them all).
    const size_t n = shards_.size();
    attr->consulted.resize(n);
    std::iota(attr->consulted.begin(), attr->consulted.end(), 0);
    std::vector<std::vector<ScoredItem>> lists(n);
    std::vector<Status> statuses(n, Status::OK());
    std::vector<RetrievalPath> paths(n, RetrievalPath::kNone);
    ThresholdBroadcast broadcast;

    auto score_one = [&](size_t s) {
      const ShardSlice* slice = cut[s].get();
      if (slice == nullptr) {
        // This shard's chain has no valid slice (breaker degraded it or it
        // was never published): it answers from its popularity slice while
        // the healthy shards keep serving the model — availability per
        // failure domain instead of a server-wide fallback.
        shard_stats_[s]->RecordDegraded();
        lists[s] = shards_[s].PopularityTopK(u, k, options);
        return;
      }
      auto got = shards_[s].ScoreTopK(*slice, u, k, options, deadline,
                                      &broadcast, &retrieval_metrics_,
                                      &paths[s]);
      if (got.ok()) {
        lists[s] = *std::move(got);
      } else {
        statuses[s] = got.status();
      }
    };

    if (n == 1) {
      score_one(0);
    } else {
      // Scatter over the dedicated pool and wait on a latch. The scatter
      // tasks never block on anything, so the admitted caller parked here
      // cannot deadlock.
      std::latch done(static_cast<std::ptrdiff_t>(n));
      for (size_t s = 0; s < n; ++s) {
        scatter_pool_->Submit([&score_one, &done, s] {
          score_one(s);
          done.count_down();
        });
      }
      done.wait();
    }
    // The ANN query counters count the user query once, by the most
    // specialized scan any shard ran.
    retrieval_metrics_.CountQuery(
        options, *std::max_element(paths.begin(), paths.end()));

    for (size_t s = 0; s < n; ++s) {
      if (!statuses[s].ok()) {
        attr->blame = static_cast<int32_t>(s);
        return statuses[s];
      }
    }

    // Gather: every per-shard heap feeds one global accumulator. Its total
    // order (score desc, item id asc) is insertion-order independent, so
    // the merge is deterministic and bit-identical for every shard count.
    if (n == 1) {
      top = std::move(lists[0]);
    } else {
      TopKAccumulator acc(k);
      for (const std::vector<ScoredItem>& list : lists) {
        for (const ScoredItem& item : list) acc.Push(item.item, item.score);
      }
      top = acc.Take();
    }
    ApplyMinScore(options.min_score, &top);
  }

  FaultInjector& faults = FaultInjector::Instance();
  if (faults.armed() && !top.empty() &&
      faults.ShouldFire(FaultPoint::kServeScoreNan)) {
    top[0].score = std::numeric_limits<double>::quiet_NaN();
  }
  // Serve-time integrity, attributed to the failure domain: a non-finite
  // score is charged to the shard that owns the item, and only that shard's
  // breaker window eats the error.
  for (const ScoredItem& item : top) {
    if (!std::isfinite(item.score)) {
      const int32_t s = shard_map_.ShardOfItem(item.item);
      attr->blame = s;
      if (attr->consulted.empty()) attr->consulted.push_back(s);
      const ShardSlice* slice = cut[static_cast<size_t>(s)].get();
      return Status::Internal(
          "non-finite score served for user " + std::to_string(u) +
          " by shard " + std::to_string(s) + " slice v" +
          std::to_string(slice != nullptr ? slice->version : 0));
    }
  }
  return top;
}

bool ModelServer::AllDark(
    const std::vector<std::shared_ptr<const ShardSlice>>& cut,
    QueryAttribution* attr) const {
  if (std::any_of(cut.begin(), cut.end(),
                  [](const std::shared_ptr<const ShardSlice>& s) {
                    return s != nullptr;
                  })) {
    return false;
  }
  // Every shard of a published server tripped dark: the shards still count
  // the popularity-served query, so their cooldowns advance toward the
  // half-open probe.
  attr->consulted.resize(cut.size());
  std::iota(attr->consulted.begin(), attr->consulted.end(), 0);
  return true;
}

Result<std::vector<ScoredItem>> ModelServer::ServeOne(
    UserId u, size_t k, const QueryOptions& options, QueryAttribution* attr) {
  if (u < 0 || u >= history_.num_users()) {
    return Status::OutOfRange("unknown user id " + std::to_string(u));
  }
  auto cut = AcquireCut();
  if (AllDark(cut, attr)) {
    stats_.RecordDegraded();
    return ServeDegraded(u, k, options);
  }
  return ServeUser(u, k, options, DeadlineFrom(options), cut, attr);
}

Result<BatchReply> ModelServer::ServeBatch(std::span<const UserId> users,
                                           size_t k,
                                           const QueryOptions& options,
                                           QueryAttribution* attr) {
  for (UserId u : users) {
    if (u < 0 || u >= history_.num_users()) {
      return Status::OutOfRange("unknown user id " + std::to_string(u));
    }
  }
  BatchReply reply;
  reply.results.resize(users.size());
  reply.complete.assign(users.size(), 0);
  if (users.empty()) return reply;

  auto cut = AcquireCut();
  if (AllDark(cut, attr)) {
    for (size_t i = 0; i < users.size(); ++i) {
      stats_.RecordDegraded();
      auto one = ServeDegraded(users[i], k, options);
      if (!one.ok()) return one.status();
      reply.results[i] = *std::move(one);
      reply.complete[i] = 1;
    }
    reply.num_complete = users.size();
    return reply;
  }

  // One absolute deadline for the whole batch; users run serially on the
  // caller's thread (parallelism is across requests and across shards
  // within one user), and an expiry hands back the completed prefix.
  const std::optional<Clock::time_point> deadline = DeadlineFrom(options);
  for (size_t i = 0; i < users.size(); ++i) {
    auto one = ServeUser(users[i], k, options, deadline, cut, attr);
    if (!one.ok()) {
      if (one.status().code() == StatusCode::kDeadlineExceeded) break;
      return one.status();  // integrity failures fail the whole batch
    }
    reply.results[i] = *std::move(one);
    reply.complete[i] = 1;
  }
  for (uint8_t c : reply.complete) reply.num_complete += c;
  reply.deadline_exceeded = reply.num_complete < users.size();
  return reply;
}

Result<std::vector<ScoredItem>> ModelServer::Recommend(
    UserId u, size_t k, const QueryOptions& options) {
  stats_.RecordQuery();
  // Without a governor the caller's options pass straight through.
  std::optional<QueryOptions> governed;
  if (governor_ != nullptr) {
    governor_->ApplyToQuery(&governed.emplace(options));
  }
  const QueryOptions& effective = governed ? *governed : options;
  TraceSpan span(query_latency_);
  std::optional<Result<std::vector<ScoredItem>>> out;
  QueryAttribution attr;
  Status admitted =
      queue_.Run([&] { out.emplace(ServeOne(u, k, effective, &attr)); });
  if (!admitted.ok()) {
    span.Cancel();
    stats_.RecordShed();
    recorder_.Record(FlightEventKind::kShed, "query shed at admission",
                     queue_.depth(), queue_.max_depth());
    return admitted;
  }
  span.Stop();
  const double elapsed_us = span.ElapsedMicros();
  if (options_.slow_query_us > 0 &&
      elapsed_us >= static_cast<double>(options_.slow_query_us)) {
    recorder_.Record(FlightEventKind::kSlowQuery,
                     "query served above slow threshold", u, 0, elapsed_us);
  }
  RecordOutcome(out->status(), attr);
  return *std::move(out);
}

Result<BatchReply> ModelServer::RecommendBatch(std::span<const UserId> users,
                                               size_t k,
                                               const QueryOptions& options) {
  stats_.RecordQuery();
  std::optional<QueryOptions> governed;
  if (governor_ != nullptr) {
    governor_->ApplyToQuery(&governed.emplace(options));
  }
  const QueryOptions& effective = governed ? *governed : options;
  TraceSpan span(batch_latency_);
  std::optional<Result<BatchReply>> out;
  QueryAttribution attr;
  Status admitted = queue_.Run(
      [&] { out.emplace(ServeBatch(users, k, effective, &attr)); });
  if (!admitted.ok()) {
    span.Cancel();
    stats_.RecordShed();
    recorder_.Record(FlightEventKind::kShed, "batch shed at admission",
                     queue_.depth(), queue_.max_depth());
    return admitted;
  }
  span.Stop();
  const double elapsed_us = span.ElapsedMicros();
  if (options_.slow_query_us > 0 &&
      elapsed_us >= static_cast<double>(options_.slow_query_us)) {
    recorder_.Record(FlightEventKind::kSlowQuery,
                     "batch served above slow threshold",
                     static_cast<int64_t>(users.size()), 0, elapsed_us);
  }
  if (out->ok() && (*out)->deadline_exceeded) {
    RecordOutcome(Status::DeadlineExceeded("partial batch"), attr);
  } else {
    RecordOutcome(out->status(), attr);
  }
  return *std::move(out);
}

void ModelServer::RecordOutcome(const Status& status,
                                const QueryAttribution& attr) {
  bool breaker_error = false;
  switch (status.code()) {
    case StatusCode::kOk:
      stats_.RecordOk();
      break;
    case StatusCode::kDeadlineExceeded:
      stats_.RecordDeadlineExceeded();
      recorder_.Record(FlightEventKind::kDeadlineMiss, status.message());
      if (attr.blame >= 0) {
        shard_stats_[static_cast<size_t>(attr.blame)]
            ->RecordDeadlineExceeded();
        shard_recorders_[static_cast<size_t>(attr.blame)]->Record(
            FlightEventKind::kDeadlineMiss, status.message());
      }
      break;
    case StatusCode::kOutOfRange:
    case StatusCode::kInvalidArgument:
      stats_.RecordClientError();
      break;
    default:
      stats_.RecordInternalError();
      recorder_.Record(FlightEventKind::kInternalError, status.message());
      if (attr.blame >= 0) {
        shard_stats_[static_cast<size_t>(attr.blame)]->RecordInternalError();
        shard_recorders_[static_cast<size_t>(attr.blame)]->Record(
            FlightEventKind::kInternalError, status.message());
      }
      breaker_error = true;
      break;
  }
  for (int32_t s : attr.consulted) {
    shard_stats_[static_cast<size_t>(s)]->RecordQuery();
  }

  // Outcomes that exercised the served slices and can judge their health —
  // what a shard's half-open probe window counts. Deadline misses and
  // client errors say nothing about the slice under probe.
  const bool judges_model = status.code() == StatusCode::kOk || breaker_error;

  // Each consulted shard's window counts this query; only the blamed
  // shard's window eats the error. Every state transition is decided under
  // breaker_mu_ and acted on after releasing it — the actions take
  // snapshot_mu_, and the two locks are never held together.
  std::vector<int32_t> judged = attr.consulted;
  if (attr.blame >= 0 &&
      std::find(judged.begin(), judged.end(), attr.blame) == judged.end()) {
    judged.push_back(attr.blame);
  }
  if (judged.empty()) return;
  struct ShardAction {
    enum class Kind { kTrip, kBeginProbe, kResolveProbe };
    int32_t shard;
    Kind kind;
    bool recovered = false;
    double rate = 0.0;
  };
  std::vector<ShardAction> actions;
  {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    for (int32_t s : judged) {
      BreakerWindow& w = breaker_windows_[static_cast<size_t>(s)];
      const bool shard_error = breaker_error && s == attr.blame;
      if (w.state == ShardBreakerState::kHalfOpen) {
        // The probe window judges this shard's re-admitted slice alone;
        // its tumbling window is suspended so the verdict cannot
        // double-trip.
        if (!judges_model) continue;
        if (shard_error) ++w.probe_errors;
        if (--w.probe_left <= 0) {
          const double rate =
              static_cast<double>(w.probe_errors) /
              static_cast<double>(
                  std::max<int64_t>(1, options_.breaker.probe_window));
          actions.push_back(
              {s, ShardAction::Kind::kResolveProbe,
               rate < options_.breaker.error_threshold, rate});
          w.state = ShardBreakerState::kClosed;
          w.queries = 0;
          w.errors = 0;
        }
        continue;
      }
      ++w.queries;
      if (shard_error) ++w.errors;
      bool tripped = false;
      if (w.queries >= options_.breaker.min_samples) {
        const double rate = static_cast<double>(w.errors) /
                            static_cast<double>(w.queries);
        if (rate >= options_.breaker.error_threshold) {
          actions.push_back({s, ShardAction::Kind::kTrip});
          w = BreakerWindow{};
          tripped = true;
        } else if (w.queries >= options_.breaker.window) {
          // Only the tumbling counters reset; a cooldown in flight keeps
          // ticking toward its probe.
          w.queries = 0;
          w.errors = 0;
        }
      }
      if (!tripped && w.state == ShardBreakerState::kCooldown) {
        if (--w.cooldown_left <= 0) {
          actions.push_back({s, ShardAction::Kind::kBeginProbe});
          w.state = ShardBreakerState::kHalfOpen;
          w.probe_left = std::max<int64_t>(1, options_.breaker.probe_window);
          w.probe_errors = 0;
        }
      }
    }
  }
  for (const ShardAction& action : actions) {
    switch (action.kind) {
      case ShardAction::Kind::kTrip:
        TripShardBreaker(action.shard);
        break;
      case ShardAction::Kind::kBeginProbe:
        BeginShardProbe(action.shard);
        break;
      case ShardAction::Kind::kResolveProbe:
        ResolveShardProbe(action.shard, action.recovered, action.rate);
        break;
    }
  }
}

bool ModelServer::TripShardBreaker(int32_t shard) {
  bool have_probe_candidate = false;
  // Slices the chain lets go of, freed after snapshot_mu_ is released.
  std::vector<std::shared_ptr<const ShardSlice>> released;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (chains_.empty()) return false;
    stats_.RecordBreakerTrip();
    shard_stats_[static_cast<size_t>(shard)]->RecordBreakerTrip();
    ShardChain& chain = chains_[static_cast<size_t>(shard)];
    const int64_t from_version =
        chain.current != nullptr ? chain.current->version : 0;
    RecordShardEvent(shard, FlightEventKind::kBreakerTrip,
                     "error-rate breaker fired on shard " +
                         std::to_string(shard),
                     from_version, shard);
    // Stash the failing slice for a later half-open probe; a newer trip
    // replaces any older, never-probed candidate.
    released.push_back(std::move(chain.tripped));
    released.push_back(std::move(chain.probe_fallback));
    if (chain.current != nullptr) {
      chain.tripped = chain.current;
      have_probe_candidate = true;
    }
    if (chain.previous != nullptr) {
      CLAPF_LOG(Warning) << "circuit breaker tripped on shard " << shard
                         << " slice v" << from_version
                         << ": rolling back to v" << chain.previous->version;
      RecordShardEvent(shard, FlightEventKind::kRollback,
                       "shard rolled back to previous slice", from_version,
                       chain.previous->version);
      released.push_back(std::exchange(chain.current,
                                       std::move(chain.previous)));
      stats_.RecordRollback();
      shard_stats_[static_cast<size_t>(shard)]->RecordRollback();
    } else {
      CLAPF_LOG(Warning) << "circuit breaker tripped on shard " << shard
                         << " with no rollback target: shard degrades to "
                            "popularity fallback";
      RecordShardEvent(shard, FlightEventKind::kDegrade,
                       "no rollback target; shard degraded to popularity "
                       "fallback",
                       from_version, shard);
      released.push_back(std::move(chain.current));
    }
  }
  released.clear();
  {
    // Arm the half-open schedule for this shard's window. RecordOutcome
    // already zeroed the tumbling counters when it decided the trip; this
    // re-zeroing only covers direct TripShardBreaker callers.
    std::lock_guard<std::mutex> lock(breaker_mu_);
    BreakerWindow& w = breaker_windows_[static_cast<size_t>(shard)];
    if (have_probe_candidate && options_.breaker.cooldown_queries > 0) {
      w.state = ShardBreakerState::kCooldown;
      w.cooldown_left = options_.breaker.cooldown_queries;
    } else {
      w.state = ShardBreakerState::kClosed;
    }
    w.probe_left = 0;
    w.probe_errors = 0;
    w.queries = 0;
    w.errors = 0;
  }
  if (!options_.flight_dump_path.empty()) {
    Status dumped = recorder_.DumpJsonFile(options_.flight_dump_path);
    if (!dumped.ok()) {
      CLAPF_LOG(Warning) << "flight-recorder dump to "
                         << options_.flight_dump_path
                         << " failed: " << dumped.ToString();
    }
  }
  return have_probe_candidate;
}

bool ModelServer::BeginShardProbe(int32_t shard) {
  bool started = false;
  int64_t probe_version = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (!chains_.empty()) {
      ShardChain& chain = chains_[static_cast<size_t>(shard)];
      if (chain.tripped != nullptr) {
        chain.probe_fallback = chain.current;
        probe_version = chain.tripped->version;
        chain.current = chain.tripped;
        started = true;
      }
    }
  }
  if (!started) {
    // A publish raced the probe open and superseded the stashed slice;
    // nothing to probe.
    std::lock_guard<std::mutex> lock(breaker_mu_);
    BreakerWindow& w = breaker_windows_[static_cast<size_t>(shard)];
    w.state = ShardBreakerState::kClosed;
    w.probe_left = 0;
    w.probe_errors = 0;
    return false;
  }
  stats_.RecordProbe();
  shard_stats_[static_cast<size_t>(shard)]->RecordProbe();
  RecordShardEvent(shard, FlightEventKind::kProbeStart,
                   "half-open probe re-admitted tripped slice on shard " +
                       std::to_string(shard),
                   probe_version, shard);
  CLAPF_LOG(Info) << "half-open probe: re-admitting tripped slice v"
                  << probe_version << " on shard " << shard << " for "
                  << options_.breaker.probe_window << " queries";
  return true;
}

void ModelServer::ResolveShardProbe(int32_t shard, bool recovered,
                                    double error_rate) {
  // Slices the chain lets go of, declared before the lock so that they are
  // freed after snapshot_mu_ is released.
  std::shared_ptr<const ShardSlice> released[3];
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (chains_.empty()) return;
  ShardChain& chain = chains_[static_cast<size_t>(shard)];
  if (chain.tripped == nullptr || chain.current != chain.tripped) {
    // A publish replaced the probe slice mid-window; its verdict is moot.
    released[0] = std::move(chain.tripped);
    released[1] = std::move(chain.probe_fallback);
    return;
  }
  const int64_t probe_version = chain.current->version;
  if (recovered) {
    // The probed slice stays serving and the fallback it displaced becomes
    // the rollback target again — the pre-incident chain restored, for
    // this shard alone.
    released[2] = std::exchange(chain.previous, chain.probe_fallback);
    stats_.RecordProbeRecovery();
    shard_stats_[static_cast<size_t>(shard)]->RecordProbeRecovery();
    RecordShardEvent(shard, FlightEventKind::kProbeRecovered,
                     "probe passed; shard slice reinstated", probe_version,
                     chain.previous != nullptr ? chain.previous->version : 0,
                     error_rate);
    CLAPF_LOG(Info) << "half-open probe passed: slice v" << probe_version
                    << " reinstated on shard " << shard << " (error rate "
                    << error_rate << ")";
  } else {
    released[2] = std::exchange(chain.current, chain.probe_fallback);
    stats_.RecordProbeFailure();
    shard_stats_[static_cast<size_t>(shard)]->RecordProbeFailure();
    RecordShardEvent(shard, FlightEventKind::kProbeFailed,
                     "probe failed; shard reverted to fallback",
                     probe_version,
                     chain.current != nullptr ? chain.current->version : 0,
                     error_rate);
    CLAPF_LOG(Warning) << "half-open probe failed: slice v" << probe_version
                       << " discarded on shard " << shard << " (error rate "
                       << error_rate << ")";
  }
  released[0] = std::move(chain.tripped);
  released[1] = std::move(chain.probe_fallback);
}

std::vector<int64_t> ModelServer::shard_versions() const {
  std::vector<int64_t> versions(static_cast<size_t>(num_shards()), 0);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  for (size_t s = 0; s < chains_.size(); ++s) {
    const auto& current = chains_[s].current;
    versions[s] = current != nullptr ? current->version : 0;
  }
  return versions;
}

int64_t ModelServer::version() const {
  const std::vector<int64_t> versions = shard_versions();
  return *std::min_element(versions.begin(), versions.end());
}

bool ModelServer::degraded() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (chains_.empty()) return true;
  for (const ShardChain& chain : chains_) {
    if (chain.current == nullptr) return true;
  }
  return false;
}

ServingStatsSnapshot ModelServer::stats() const { return stats_.Snapshot(); }

std::vector<ShardStatsSnapshot> ModelServer::shard_stats() const {
  // Ascending shard id by construction — NOT registry iteration order —
  // so two snapshots of the same counters always render identically.
  std::vector<ShardStatsSnapshot> shards;
  shards.reserve(shard_stats_.size());
  for (const auto& stats : shard_stats_) shards.push_back(stats->Snapshot());
  return shards;
}

Status ModelServer::DumpFlightRecorder(
    const std::string& path, const FlightDumpOptions& options) const {
  return recorder_.DumpJsonFile(path, options);
}

}  // namespace clapf

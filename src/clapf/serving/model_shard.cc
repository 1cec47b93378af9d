#include "clapf/serving/model_shard.h"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "clapf/model/model_io.h"
#include "clapf/obs/trace_span.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {

// The smallest candidate whose slice storage BuildSliceFrom allocates on a
// helper thread beside the gate stages. Below it the zero-fill costs the
// calling thread at most ~25 ms, and the helper would gain nothing but a
// malloc arena of its own: glibc serves allocations under its 32 MB
// mmap-threshold cap from per-thread arenas, which keep freed slices'
// memory resident (+2.5–3.5 MB of peak RSS on an ML1M-sized model).
constexpr size_t kHelperAllocationBytes = size_t{32} << 20;

}  // namespace

ExclusionBitmap& ExclusionBitmap::ForThread(size_t n) {
  thread_local ExclusionBitmap bitmap;
  for (size_t i : bitmap.set_) bitmap.bits_[i] = false;
  bitmap.set_.clear();
  bitmap.bits_.resize(n, false);
  return bitmap;
}

PublishStageMetrics::PublishStageMetrics(MetricsRegistry* registry) {
  auto stage = [&](const char* name) {
    return registry->GetHistogram(
        std::string("serving.publish.stage.") + name + "_us",
        PublishStageBucketsUs());
  };
  handover = stage("handover");
  integrity = stage("integrity");
  pack = stage("pack");
  agreement = stage("agreement");
  ann_build = stage("ann_build");
  ann_kmeans = stage("ann_kmeans");
  ann_assign = stage("ann_assign");
  ann_repack = stage("ann_repack");
  ann_encode = stage("ann_encode");
  ann_gate = stage("ann_gate");
  auc_probe = stage("auc_probe");
  swap = stage("swap");
  release = stage("release");
  agreement_pairs_checked =
      registry->GetCounter("serving.publish.agreement_pairs_checked_total");
}

ModelShard::ModelShard(int32_t id, ItemId begin, ItemId end,
                       const Dataset& full_history,
                       const std::vector<double>& full_popularity)
    : id_(id),
      begin_(begin),
      end_(end),
      history_(Dataset::SliceItemRange(full_history, begin, end)),
      popularity_(full_popularity.begin() + begin,
                  full_popularity.begin() + end) {
  CLAPF_CHECK(id >= 0);
}

Result<std::shared_ptr<ShardSlice>> ModelShard::BuildSlice(
    FactorModel candidate, bool packed, bool verify_integrity,
    int32_t packed_agreement_users, const std::string& context,
    const IvfGateOptions* ann, const ShardSlice* previous,
    MetricsRegistry* metrics, int threads,
    const PublishStageMetrics* stages) const {
  if (candidate.num_items() != num_local_items()) {
    return BuildSliceFrom(candidate, packed, verify_integrity,
                          packed_agreement_users, context, ann, previous,
                          metrics, threads, stages);
  }
  static const PublishStageMetrics kUntimed;
  auto slice = std::make_shared<ShardSlice>(std::move(candidate));
  CLAPF_RETURN_IF_ERROR(GateSlice(
      slice->model, packed, verify_integrity, packed_agreement_users, context,
      ann, previous, metrics, threads, stages != nullptr ? *stages : kUntimed,
      slice.get()));
  return slice;
}

Result<std::shared_ptr<ShardSlice>> ModelShard::BuildSliceFrom(
    const FactorModel& candidate, bool packed, bool verify_integrity,
    int32_t packed_agreement_users, const std::string& context,
    const IvfGateOptions* ann, const ShardSlice* previous,
    MetricsRegistry* metrics, int threads,
    const PublishStageMetrics* stages) const {
  static const PublishStageMetrics kUntimed;
  const PublishStageMetrics& timed = stages != nullptr ? *stages : kUntimed;
  const auto model_like = [&candidate](int32_t num_items) {
    return FactorModel(candidate.num_users(), num_items,
                       candidate.num_factors(), candidate.use_item_bias());
  };
  const size_t candidate_bytes = (candidate.user_factor_data().size() +
                                  candidate.item_factor_data().size() +
                                  candidate.item_bias_data().size()) *
                                 sizeof(double);
  const bool whole = candidate.num_items() == num_local_items();
  if (!whole || candidate_bytes < kHelperAllocationBytes) {
    // This shard's items come straight out of the candidate, and the
    // stages read the copy.
    TraceSpan span(timed.handover);
    auto slice = std::make_shared<ShardSlice>(model_like(num_local_items()));
    slice->model.CopyItemsFrom(candidate, whole ? 0 : begin_, threads);
    span.Stop();
    CLAPF_RETURN_IF_ERROR(GateSlice(slice->model, packed, verify_integrity,
                                    packed_agreement_users, context, ann,
                                    previous, metrics, threads, timed,
                                    slice.get()));
    return slice;
  }
  // The stages read `candidate` in place. Meanwhile a helper thread
  // allocates the slice's model: the zero-fill faults in its pages (~0.15 s
  // for 256 MB), which would otherwise stall the calling thread before any
  // stage. The future's destructor joins the helper on every path out.
  auto storage = std::async(std::launch::async, model_like,
                            candidate.num_items());
  // The slice's model stays empty until the copy below.
  auto slice = std::make_shared<ShardSlice>(model_like(0));
  CLAPF_RETURN_IF_ERROR(GateSlice(candidate, packed, verify_integrity,
                                  packed_agreement_users, context, ann,
                                  previous, metrics, threads, timed,
                                  slice.get()));
  TraceSpan span(timed.handover);
  slice->model = storage.get();
  slice->model.CopyItemsFrom(candidate, 0, threads);
  return slice;
}

Status ModelShard::GateSlice(const FactorModel& model, bool packed,
                             bool verify_integrity,
                             int32_t packed_agreement_users,
                             const std::string& context,
                             const IvfGateOptions* ann,
                             const ShardSlice* previous,
                             MetricsRegistry* metrics, int threads,
                             const PublishStageMetrics& timed,
                             ShardSlice* slice) const {
  if (verify_integrity) {
    // The slice carries the full user matrix plus this shard's items, so
    // the shape check + finite scan covers exactly the parameters this
    // shard will serve — a corrupt user factor is caught by every shard's
    // gate, a corrupt item factor by its owner's.
    TraceSpan span(timed.integrity);
    CLAPF_RETURN_IF_ERROR(VerifyModelIntegrity(model, context, threads));
  }
  if (!packed) return Status::OK();
  // The agreement of the slice's float copy `snap` (lane l holds item
  // map[l], or l without a map) with `model`. A stamped previous slice is
  // the baseline: `delta` (its dirty set, computed here when the caller
  // has none) names the items whose doubles moved.
  const auto agree = [&](const PackedSnapshot& snap, const int32_t* map,
                         const ItemDelta* delta) -> Status {
    if (packed_agreement_users <= 0) return Status::OK();
    TraceSpan span(timed.agreement);
    AgreementBaseline baseline;  // empty: the full check
    std::optional<ItemDelta> own_delta;
    if (previous != nullptr && previous->agreement &&
        previous->served_packed() != nullptr) {
      const FactorModel& base = previous->model;
      if (delta == nullptr && base.num_items() == model.num_items() &&
          base.num_factors() == model.num_factors() &&
          base.use_item_bias() == model.use_item_bias()) {
        own_delta = DiffItems(model, base, threads);
        delta = &*own_delta;
      }
      baseline = {&base, previous->served_packed(), *previous->agreement,
                  delta != nullptr ? &delta->items : nullptr,
                  previous->ivf != nullptr
                      ? previous->ivf->global_to_local_data()
                      : nullptr};
    }
    AgreementStamp stamp;
    Status agreed = VerifyPackedAgreement(model, snap, packed_agreement_users,
                                          context, threads, &baseline, &stamp,
                                          map);
    span.Stop();
    if (timed.agreement_pairs_checked != nullptr) {
      timed.agreement_pairs_checked->Inc(stamp.pairs_checked);
    }
    CLAPF_RETURN_IF_ERROR(agreed);
    slice->agreement = stamp;
    return Status::OK();
  };
  if (ann == nullptr) {
    TraceSpan pack_span(timed.pack);
    auto snap = std::make_shared<PackedSnapshot>(
        PackedSnapshot::Build(model, nullptr, threads));
    pack_span.Stop();
    CLAPF_RETURN_IF_ERROR(agree(*snap, nullptr, nullptr));
    slice->packed = std::move(snap);
    return Status::OK();
  }
  // Each shard's index covers its own slice and is gated on its own: a
  // corrupt or low-recall index refuses only this shard's slice. Its
  // repack is the slice's one float copy, checked as built.
  IvfGateOptions gate = *ann;
  gate.build_us = timed.ann_build;
  gate.kmeans_us = timed.ann_kmeans;
  gate.assign_us = timed.ann_assign;
  gate.repack_us = timed.ann_repack;
  gate.encode_us = timed.ann_encode;
  gate.gate_us = timed.ann_gate;
  GateBaseline baseline;
  if (previous != nullptr) {
    baseline = {&previous->model, previous->served_packed(),
                previous->recall_truth ? &*previous->recall_truth : nullptr};
  }
  RecallTruth truth;
  auto ivf = BuildGatedIvf(
      model, gate, previous != nullptr ? previous->ivf.get() : nullptr,
      context, metrics, &baseline, &truth,
      [&](const IvfIndex& index, const ItemDelta* delta) {
        return agree(index.packed(), index.local_to_global_data(), delta);
      });
  if (!ivf.ok()) return ivf.status();
  slice->ivf = *std::move(ivf);
  if (!truth.lists.empty()) slice->recall_truth = std::move(truth);
  return Status::OK();
}

const std::vector<bool>* ModelShard::BuildExcluded(
    UserId u, const QueryOptions& options) const {
  ExclusionBitmap& excluded =
      ExclusionBitmap::ForThread(static_cast<size_t>(num_local_items()));
  for (ItemId i : history_.ItemsOf(u)) excluded.Set(static_cast<size_t>(i));
  for (ItemId i : options.exclude) {
    if (i >= begin_ && i < end_) excluded.Set(static_cast<size_t>(i - begin_));
  }
  return &excluded.bits();
}

Result<std::vector<ScoredItem>> ModelShard::ScoreTopK(
    const ShardSlice& slice, UserId u, size_t k, const QueryOptions& options,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    ThresholdBroadcast* broadcast, const RetrievalMetrics* metrics,
    RetrievalPath* path) const {
  const size_t local_k = std::min(k, static_cast<size_t>(num_local_items()));
  if (local_k == 0) return std::vector<ScoredItem>{};
  const std::vector<bool>* excluded = BuildExcluded(u, options);
  const size_t min_items =
      local_k + history_.ItemsOf(u).size() + options.exclude.size();
  // A full heap bounds the global k-th best only when it holds k items: a
  // shard smaller than k neither raises the bar nor reads it.
  auto top = Retrieve({&slice.model, slice.served_packed(), slice.ivf.get(),
                       slice.served_map()},
                      u, local_k, excluded, min_items, options, deadline,
                      local_k == k ? broadcast : nullptr, metrics, path);
  if (!top.ok()) return top;
  for (ScoredItem& item : *top) item.item += begin_;
  return top;
}

std::vector<ScoredItem> ModelShard::PopularityTopK(
    UserId u, size_t k, const QueryOptions& options) const {
  const size_t local_k =
      std::min(k, static_cast<size_t>(num_local_items()));
  if (local_k == 0) return {};
  const std::vector<bool>* excluded = BuildExcluded(u, options);
  std::vector<ScoredItem> top = SelectTopK(popularity_, *excluded, local_k);
  for (ScoredItem& item : top) item.item += begin_;
  return top;
}

}  // namespace clapf

#ifndef CLAPF_SERVING_MODEL_SHARD_H_
#define CLAPF_SERVING_MODEL_SHARD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"
#include "clapf/util/top_k.h"

namespace clapf {

/// The calling thread's exclusion bitmap, reused across queries and shards.
/// ForThread clears only the bits the thread's previous query set and
/// resizes to the new catalog (a shard's local range, or the whole catalog
/// for a degraded answer), so a query writes O(its exclusions) bits, never
/// an O(catalog) reset.
class ExclusionBitmap {
 public:
  /// The calling thread's bitmap, every bit clear, sized to `n` items.
  static ExclusionBitmap& ForThread(size_t n);

  /// Flags item `i` (< the size ForThread gave).
  void Set(size_t i) {
    if (bits_[i]) return;
    bits_[i] = true;
    set_.push_back(i);
  }

  const std::vector<bool>& bits() const { return bits_; }

 private:
  std::vector<bool> bits_;
  std::vector<size_t> set_;  // the indices of bits_ that are true
};

/// One published model version restricted to a shard's item range: the
/// sliced exact model plus, when packed serving is on, one float copy of
/// its catalog — the IVF index's cluster-ordered repack when ANN serving is
/// on, else a base-order PackedSnapshot. Immutable once published; query
/// threads share it read-only via shared_ptr.
struct ShardSlice {
  explicit ShardSlice(FactorModel sliced_model)
      : model(std::move(sliced_model)) {}

  /// The slice's float copy: every packed reader (ann-off packed queries,
  /// the agreement check, the AUC probe) goes through this pair. The
  /// index's repack when the slice carries one, else `packed`; null when
  /// packed serving is off.
  const PackedSnapshot* served_packed() const {
    return ivf != nullptr ? &ivf->packed() : packed.get();
  }
  /// The item each lane of served_packed() holds: the index's local→global
  /// table, or null when lane i holds item i.
  const int32_t* served_map() const {
    return ivf != nullptr ? ivf->local_to_global_data() : nullptr;
  }

  int64_t version = 0;
  FactorModel model;  // items renumbered to [0, shard size)
  /// Base-order repack; a publish builds one only for a slice without an
  /// index (read through served_packed(), which prefers the index's).
  std::shared_ptr<const PackedSnapshot> packed;
  std::shared_ptr<const IvfIndex> ivf;  // null when ANN is off
  /// Set when served_packed() passed VerifyPackedAgreement: the kernel and
  /// sample it ran with, so the next publish can check only what changed.
  std::optional<AgreementStamp> agreement;
  /// Set when `ivf` passed its measured recall gate: the sampled users'
  /// exact top lists over the base-order repack of `model` and what they
  /// were computed under, so the next publish's gate re-scores only the
  /// items that changed.
  std::optional<RecallTruth> recall_truth;
};

/// The serving.publish.stage.<stage>_us histograms (PublishStageBucketsUs,
/// up to 60 s) that time a publish stage by stage: handover (the slice's
/// own copy of a candidate it cannot adopt, in tiles over the thread
/// budget), integrity (shape check + tiled finite scan), pack (the
/// base-order SIMD repack of a slice without an index; an index's repack
/// is ann_repack), agreement (packed-vs-exact on the slice's float copy,
/// on the pairs that changed since the serving slice when that slice can
/// be the baseline; a packed-only slice's includes its DiffItems pass),
/// ann_build and ann_gate (index build; dimensions, structure and
/// measured recall),
/// auc_probe (sampled-AUC floor), swap (the snapshot swap under the
/// snapshot mutex) and release (freeing the slices the swap displaced, off
/// that mutex). ann_build
/// splits into the IvfBuildPhases ann_kmeans (centroid training, full
/// builds only), ann_assign (the dirty set and its reassignment),
/// ann_repack and ann_encode (pq only). A publish records one sample per
/// stage it runs, one per built slice for the slice stages, also when that
/// stage refuses the candidate. The
/// serving.publish.agreement_pairs_checked_total counter adds the
/// (sampled user, block) pairs each agreement check compared. Default-
/// constructed handles are null and time nothing.
struct PublishStageMetrics {
  PublishStageMetrics() = default;
  explicit PublishStageMetrics(MetricsRegistry* registry);

  Histogram* handover = nullptr;
  Histogram* integrity = nullptr;
  Histogram* pack = nullptr;
  Histogram* agreement = nullptr;
  Histogram* ann_build = nullptr;
  Histogram* ann_kmeans = nullptr;
  Histogram* ann_assign = nullptr;
  Histogram* ann_repack = nullptr;
  Histogram* ann_encode = nullptr;
  Histogram* ann_gate = nullptr;
  Histogram* auc_probe = nullptr;
  Histogram* swap = nullptr;
  Histogram* release = nullptr;
  Counter* agreement_pairs_checked = nullptr;
};

/// Immutable identity of one catalog shard — its item range, the serving
/// history and popularity table restricted to it — plus the two operations
/// the server fans out: building a gated slice of a candidate model and
/// answering a local top-k scatter query. A one-shard server has one
/// ModelShard covering the whole catalog.
///
/// All ids crossing this class's boundary are global: queries hand in global
/// exclusion lists and get back global item ids; the local renumbering
/// ([0, size) = [begin, end) - begin) is an internal layout detail.
///
/// Thread-safe: const methods only, and the per-thread scratch they use is
/// thread_local.
class ModelShard {
 public:
  /// Shard `id` owning items [begin, end) of `full_history`'s catalog.
  /// `full_popularity` is the server's popularity table (one count per
  /// item); both are sliced and copied, so the shard is self-contained.
  ModelShard(int32_t id, ItemId begin, ItemId end,
             const Dataset& full_history,
             const std::vector<double>& full_popularity);

  int32_t id() const { return id_; }
  ItemId begin() const { return begin_; }
  ItemId end() const { return end_; }
  int32_t num_local_items() const { return end_ - begin_; }

  /// Builds this shard's ShardSlice of `candidate` (version left 0 for the
  /// server to assign at swap time). `candidate` holds either the full
  /// catalog, whose items [begin, end) are copied out as BuildSliceFrom
  /// does, or exactly this shard's items, which the slice adopts as they
  /// are — so the one-shard server moves its candidate in and a publish
  /// holds one copy of the model. When `verify_integrity` is set the sliced
  /// model must pass VerifyModelIntegrity (shape check + finite scan). When
  /// `packed` is set the slice gets one float copy of its catalog: with
  /// `ann` non-null, an IvfIndex built over the sliced catalog and gated by
  /// BuildGatedIvf with `previous` as its GateBaseline — incrementally from
  /// `previous`'s index, with the recall truth started from `previous`'s,
  /// kept in the slice — whose cluster-ordered repack is the copy; without
  /// it, a base-order PackedSnapshot. If `packed_agreement_users` > 0 the
  /// copy is verified against the slice within PackedScoreBound (an index's
  /// repack as built, through its map, before the index gate) and stamped.
  /// `previous` (may be null) is the slice this one replaces: a stamped
  /// previous slice is the agreement's baseline, so only the pairs whose
  /// inputs changed are checked (an unusable stamp means the full check);
  /// one DiffItems set against its model drives the agreement, the index
  /// rebuild and the recall truth. `metrics` (may be null) receives the
  /// build and gate counters. The integrity scan, the repack and the
  /// agreement check run over `threads` workers (the index passes use
  /// ann->ivf's build_threads); `stages` (may be null) times each stage.
  /// Gate failures leave nothing published.
  Result<std::shared_ptr<ShardSlice>> BuildSlice(
      FactorModel candidate, bool packed, bool verify_integrity,
      int32_t packed_agreement_users, const std::string& context,
      const IvfGateOptions* ann = nullptr,
      const ShardSlice* previous = nullptr,
      MetricsRegistry* metrics = nullptr, int threads = 1,
      const PublishStageMetrics* stages = nullptr) const;

  /// BuildSlice of a candidate the caller keeps: the slice gets its own
  /// copy, made in tiles over `threads` workers (the handover stage).
  /// Holding exactly this shard's items and 32 MB or more, `candidate` is
  /// read in place by the stages while a helper thread allocates the
  /// slice's storage, which is filled after them; otherwise this shard's
  /// items are copied out first and the stages read the copy. Nothing
  /// refers to `candidate` once this returns; the slice, its verdicts and
  /// its bytes are BuildSlice's.
  Result<std::shared_ptr<ShardSlice>> BuildSliceFrom(
      const FactorModel& candidate, bool packed, bool verify_integrity,
      int32_t packed_agreement_users, const std::string& context,
      const IvfGateOptions* ann = nullptr,
      const ShardSlice* previous = nullptr,
      MetricsRegistry* metrics = nullptr, int threads = 1,
      const PublishStageMetrics* stages = nullptr) const;

  /// Scatter kernel: Retrieve over this shard's slice for user `u` — the
  /// IVF shortlist when `options.ann` is set and the slice carries an index,
  /// else the packed fast path over the slice's float copy (served_packed()
  /// through served_map()) when it has one and `options.use_packed` allows
  /// it, else the exact double scan. Applies
  /// history and options.exclude exclusions; does NOT apply min_score or
  /// cold-start policy — those are gather-side decisions so they act
  /// exactly once per query. Returns at most min(k, shard size) items with
  /// GLOBAL ids, DeadlineExceeded when `deadline` expires mid-scan.
  /// `broadcast` (may be null) is the cross-shard early-reject bar, used
  /// only when the shard holds at least k items; `metrics` and `path` are
  /// Retrieve's.
  Result<std::vector<ScoredItem>> ScoreTopK(
      const ShardSlice& slice, UserId u, size_t k,
      const QueryOptions& options,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      ThresholdBroadcast* broadcast,
      const RetrievalMetrics* metrics = nullptr,
      RetrievalPath* path = nullptr) const;

  /// Degraded scatter kernel: local popularity top-k with the same
  /// exclusion rules, for shards whose serving chain has no valid slice.
  /// Global ids, never fails.
  std::vector<ScoredItem> PopularityTopK(UserId u, size_t k,
                                         const QueryOptions& options) const;

 private:
  /// The gate stages of BuildSlice over `model` (this shard's items, local
  /// ids): fills `slice`'s float copy (index or packed snapshot) and stamps
  /// and never reads slice->model.
  Status GateSlice(const FactorModel& model, bool packed,
                   bool verify_integrity, int32_t packed_agreement_users,
                   const std::string& context, const IvfGateOptions* ann,
                   const ShardSlice* previous, MetricsRegistry* metrics,
                   int threads, const PublishStageMetrics& timed,
                   ShardSlice* slice) const;

  /// Fills the thread's ExclusionBitmap (local ids) for `u`.
  const std::vector<bool>* BuildExcluded(UserId u,
                                         const QueryOptions& options) const;

  int32_t id_;
  ItemId begin_;
  ItemId end_;
  Dataset history_;                 // sliced, local item ids
  std::vector<double> popularity_;  // sliced fallback scores
};

}  // namespace clapf

#endif  // CLAPF_SERVING_MODEL_SHARD_H_

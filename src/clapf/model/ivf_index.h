#ifndef CLAPF_MODEL_IVF_INDEX_H_
#define CLAPF_MODEL_IVF_INDEX_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/pq_codec.h"
#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"

namespace clapf {

/// Build-time knobs for IvfIndex. The index is a pure function of
/// (model parameter bytes, IvfOptions): equal inputs produce a bit-identical
/// index regardless of build_threads, which is what makes online
/// dirty-cluster rebuilds reproducible.
struct IvfOptions {
  /// Coarse clusters. 0 (default) = ceil(sqrt(num_items)), always clamped to
  /// [1, num_items].
  int32_t num_clusters = 0;
  /// k-means runs a fixed 8 Lloyd iterations over at most this many evenly
  /// strided items; the final assignment pass still visits every item. At
  /// the default, the 8 iterations cost about half of that one full pass:
  /// a 1M-item, d = 32 build (1000 clusters) takes ~3 s on 4 threads, at no
  /// measurable recall cost.
  int32_t max_train_points = 65536;
  /// Seed for centroid initialization.
  uint64_t seed = 1;
  /// Probe-list width used when a query leaves QueryOptions::ann_nprobe at 0.
  int32_t default_nprobe = 8;
  /// Threads for the assignment and per-item CRC passes (1 = serial), and
  /// for the index's publish gate (the recall measurement). Never changes
  /// the result: assignments are computed independently per item, centroid
  /// updates are accumulated serially in item order, and the gate's
  /// verdicts are thread-count invariant.
  int build_threads = 1;
  /// Build the per-lane int8 code book + codes alongside the repack so
  /// queries can opt into the quantized first-pass path
  /// (QueryOptions::pq). Build cost is one extra O(n·d) pass; query-time
  /// the codes stream at a quarter of the float bandwidth.
  bool pq = false;
  /// Survivor count the quantized first pass keeps for the exact re-rank
  /// when a query leaves QueryOptions::rerank_budget at 0. On clustered
  /// catalogs ~10x k is already at full composed recall (the bench catalog
  /// measures recall@10 = 1.0 at 128) and the scattered re-rank is what a
  /// bigger budget inflates; the composed recall gate measures the
  /// consequence of whatever is configured here.
  int32_t default_rerank_budget = 128;

  /// True when two option sets build structurally compatible indexes — the
  /// precondition for RebuildDirty reusing a previous index's centroids
  /// (and, with pq on, its frozen code book).
  bool CompatibleWith(const IvfOptions& other) const {
    return num_clusters == other.num_clusters &&
           max_train_points == other.max_train_points && seed == other.seed &&
           pq == other.pq;
  }
};

/// The items whose parameter bytes differ between a candidate model and
/// the model a previous index was built from, ascending, with the CRC32 of
/// each one's new parameters: the one dirty set of a publish (DiffItems).
/// RebuildDirty reassigns exactly these items and the recall gate re-scores
/// exactly these.
struct ItemDelta {
  std::vector<ItemId> items;
  std::vector<uint32_t> crcs;  // crcs[x] belongs to items[x]
};

/// The ItemDelta of `model` against `base`, which must share its factor
/// count and bias flag and hold at most as many items. One tiled pass over
/// `threads` workers marks an item dirty when its factor or bias bytes
/// differ from base's (every item past base's catalog is dirty) and hashes
/// only the dirty items. Exact: a byte compare, where a CRC compare would
/// miss a change whose CRC collides. The result does not depend on
/// `threads`.
ItemDelta DiffItems(const FactorModel& model, const FactorModel& base,
                    int threads);

/// Wall time (us) of each phase of one IvfIndex::Build or RebuildDirty.
/// A phase that does not run reads 0: kmeans in RebuildDirty, which keeps
/// the previous centroids, and encode without IvfOptions::pq.
struct IvfBuildPhases {
  /// Max-norm pass, training-sample lift and the Lloyd iterations.
  double kmeans_us = 0.0;
  /// Per-item CRCs and the nearest-centroid pass (every item in Build, the
  /// dirty items in RebuildDirty; BuildGatedIvf adds its DiffItems pass).
  double assign_us = 0.0;
  /// Cluster-ordered permutation and the PackedSnapshot repack.
  double repack_us = 0.0;
  /// Code book training and code encoding (every item re-encoded under the
  /// frozen book in RebuildDirty).
  double encode_us = 0.0;
};

/// A contiguous, block-aligned-begin span of *local* item ids inside
/// IvfIndex::packed(), ready to feed the fused kernel.
struct IvfProbeRange {
  ItemId begin = 0;  // multiple of kPackedBlockItems
  ItemId end = 0;
};

/// IVF-style coarse index over the item factors for approximate
/// maximum-inner-product search (MIPS):
///
///   1. Every item vector [b_i, v_i] is lifted into a norm-augmented space
///      x_i = [b_i, v_i, sqrt(M² − b_i² − ‖v_i‖²)] with M the max augmented
///      norm over the catalog, so all x_i share norm M and k-means under
///      plain L2 clusters by *direction* — the standard MIPS→cosine
///      reduction. A query scores as q = [1, u, 0]: q·x_i = f_ui exactly.
///   2. k-means (trained on a deterministic strided sample, then one full
///      assignment pass) partitions the catalog into coarse clusters.
///   3. The catalog is *re-packed in cluster order*: the index owns its own
///      PackedSnapshot whose local item ids are a permutation of the global
///      ids with every cluster occupying one contiguous local range. A
///      probe list is therefore a handful of block-aligned ranges that the
///      exact fused ScoreBlocksTopK kernel re-ranks directly — the
///      approximation lives *only* in which clusters are probed; every
///      scored candidate gets its exact packed score.
///
/// The index records a per-item CRC of the source model's item parameters:
/// RebuildDirty (given no ItemDelta) uses them to reassign only the items
/// whose parameters actually changed (frozen centroids), which is the
/// online incremental-publish path.
///
/// Immutable after Build and safe to share read-only across query threads.
class IvfIndex {
 public:
  /// Full build: k-means + cluster-ordered repack. Every assignment (Lloyd
  /// over the training sample, then one pass over all n items) runs through
  /// the blocked CentroidPanel kernel, O(k·d) per item; the repack is
  /// O(n·d). `phases` (optional) receives each phase's wall time. Queries
  /// never allocate.
  static IvfIndex Build(const FactorModel& model, const IvfOptions& options,
                        IvfBuildPhases* phases = nullptr);

  /// Incremental rebuild for online publishes: keeps `previous`'s centroids,
  /// reassigns only the items whose parameter bytes changed (catalog growth
  /// counts as changed), re-packs, and re-encodes every item under the
  /// frozen code book. `options` must be CompatibleWith the previous build's
  /// (query knobs like default_nprobe may differ and take effect
  /// immediately). The changed items come from `delta` when given — the
  /// DiffItems of `model` against the model `previous` was built from, so
  /// the clean items keep their CRCs and clusters unread — and otherwise
  /// from hashing every item against the stored per-item CRCs; both build
  /// the same index. `items_reassigned` (optional) reports how many items
  /// moved through the assignment step, `phases` (optional) each phase's
  /// wall time. Returns InvalidArgument on incompatible options, a
  /// different factor count / bias mode, or a shrunken catalog — callers
  /// fall back to a full Build.
  static Result<IvfIndex> RebuildDirty(const IvfIndex& previous,
                                       const FactorModel& model,
                                       const IvfOptions& options,
                                       int64_t* items_reassigned,
                                       IvfBuildPhases* phases = nullptr,
                                       const ItemDelta* delta = nullptr);

  int32_t num_items() const { return num_items_; }
  int32_t num_factors() const { return num_factors_; }
  int32_t num_clusters() const { return num_clusters_; }
  const IvfOptions& options() const { return options_; }
  int32_t default_nprobe() const { return options_.default_nprobe; }

  /// The cluster-ordered packed snapshot probe ranges index into. Same users
  /// and the same per-item float parameters as a snapshot of the source
  /// model — only the item order differs — so re-ranked scores are
  /// bit-identical to the full packed scan's. A serving slice with an index
  /// keeps no other float copy of its catalog.
  const PackedSnapshot& packed() const { return packed_; }

  /// Global item id of local id `local` in packed().
  ItemId ToGlobal(ItemId local) const {
    return local_to_global_[static_cast<size_t>(local)];
  }
  /// Raw local→global table for the fused mapped kernel.
  const int32_t* local_to_global_data() const { return local_to_global_.data(); }
  /// Raw global→local table: the lane of packed() that holds each item.
  const int32_t* global_to_local_data() const {
    return global_to_local_.data();
  }

  /// Hints the prefetcher at the packed lanes and id-map entries of `r`'s
  /// first block. Re-rank ranges are mostly single sparse blocks scattered
  /// across a DRAM-resident repack, so each range starts with a demand miss
  /// unless the loop prefetches a few ranges ahead — pure hint, no
  /// behavioral effect.
  void PrefetchRange(const IvfProbeRange& r) const {
    const std::size_t b =
        static_cast<std::size_t>(r.begin) / kPackedBlockItems;
    const char* lanes = reinterpret_cast<const char*>(
        packed_.block_data() + b * packed_.block_stride());
    const std::size_t bytes = packed_.block_stride() * sizeof(float);
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(lanes + off, 0, 1);
    }
    __builtin_prefetch(local_to_global_.data() + r.begin, 0, 1);
  }

  /// Cluster of global item `i` / number of (real) items in cluster `c`.
  int32_t ClusterOf(ItemId i) const {
    return assignment_[static_cast<size_t>(i)];
  }
  int32_t ClusterSize(int32_t c) const {
    return cluster_begin_[static_cast<size_t>(c) + 1] -
           cluster_begin_[static_cast<size_t>(c)];
  }

  /// Selects the probe list for user `u`: ranks clusters by centroid inner
  /// product with the augmented query and keeps the top `nprobe` (clamped to
  /// [1, num_clusters]), widening past `nprobe` until at least `min_items`
  /// real items are covered (or the whole catalog is) — the guarantee that a
  /// query can always fill k slots net of exclusions. Emits merged,
  /// begin-block-aligned local ranges sorted ascending; `probes_used`
  /// (optional) reports the widened probe count. Ranges may round down onto
  /// a neighboring cluster's tail block: those extra candidates are scored
  /// exactly too, so they can only improve recall.
  void SelectProbes(UserId u, int32_t nprobe, size_t min_items,
                    std::vector<IvfProbeRange>* ranges,
                    int32_t* probes_used) const;

  /// Real (non-pad) items covered by `ranges`.
  static size_t CoveredItems(const std::vector<IvfProbeRange>& ranges);

  /// True when this index carries servable quantized codes (built with
  /// IvfOptions::pq and matching the catalog).
  bool has_pq() const {
    return options_.pq && pq_.num_items() == num_items_;
  }
  /// The block-aligned codes + frozen book, meaningful only when has_pq().
  const PqCodes& pq_codes() const { return pq_; }
  int32_t default_rerank_budget() const {
    return options_.default_rerank_budget;
  }

  /// The quantized first pass of the pq serving path: streams the int8 codes
  /// over `probes` (block-aligned ranges from SelectProbes), keeps the top
  /// `rerank_budget` non-excluded candidates by quantized score (smaller
  /// LOCAL id on ties — deterministic under the coarse codes' frequent
  /// collisions), and emits the blocks holding the survivors as merged
  /// block-aligned `rerank_ranges` clamped inside `probes` — ready for the
  /// exact fused ScoreBlocksTopKMapped re-rank, and never covering an item
  /// the plain ANN scan would not have scored (which is what makes
  /// rerank_budget ≥ shortlist bit-identical to the float ANN path).
  /// `excluded` (nullable) is indexed by global id; excluded items never
  /// consume budget. `survivors` (optional) reports how many candidates made
  /// the cut. Polls `deadline` (and the kServeSlowBlock fault) per scanned
  /// chunk like the serving scan loops; expiry returns DeadlineExceeded.
  Status QuantizedShortlist(
      UserId u, const std::vector<IvfProbeRange>& probes, size_t rerank_budget,
      const std::vector<bool>* excluded,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      std::vector<IvfProbeRange>* rerank_ranges, int64_t* survivors) const;

  /// Test/fault hook for kAnnCorruptCodes: scrambles the code bytes while
  /// the floats, book, and geometry stay intact — caught only by the
  /// measured composed-recall gate.
  void CorruptPqForTesting() { pq_.CorruptForTesting(options_.seed); }

  /// Per-item source-parameter CRCs (see class comment): RebuildDirty's
  /// dirty detector.
  const std::vector<uint32_t>& item_crcs() const { return item_crc_; }

  /// Total index bytes: permuted snapshot + centroids + tables.
  size_t memory_bytes() const;

  /// Internal-consistency check: permutation bijection, monotone cluster
  /// offsets covering [0, num_items), assignments in range, packed dims
  /// matching. Corruption(context: ...) on violation.
  Status VerifyStructure(const std::string& context) const;

  /// Test/fault hook: reverses the local→global mapping (still a bijection,
  /// so VerifyStructure alone cannot tell) WITHOUT re-packing — the
  /// canonical "cluster assignments desynced from V" corruption that the
  /// publish-time recall gate must catch. No-op below 2 items.
  void DesyncForTesting();

 private:
  IvfIndex() = default;

  /// Shared tail of Build/RebuildDirty: counting-sorts `assignment_` into the
  /// cluster-ordered permutation and re-packs the catalog in that order.
  void FinishLayout(const FactorModel& model);

  /// Augmented-space centroid data, num_clusters × (num_factors + 2).
  std::vector<float> centroids_;
  /// Per-global-item cluster id.
  std::vector<int32_t> assignment_;
  /// Local-id offsets: cluster c = locals [cluster_begin_[c], cluster_begin_[c+1]).
  std::vector<int32_t> cluster_begin_;
  /// Permutation tables between packed() local ids and global ids.
  std::vector<int32_t> local_to_global_;
  std::vector<int32_t> global_to_local_;
  /// CRC32 of each item's source parameters (factors + bias doubles): the
  /// dirty detector.
  std::vector<uint32_t> item_crc_;
  /// Max squared augmented norm M² the residual dimension was built against.
  double aug_m2_ = 0.0;
  PackedSnapshot packed_;
  /// Quantized first-pass codes over packed_'s local order (empty unless
  /// options_.pq): trained at full build, frozen-book re-encoded on
  /// RebuildDirty.
  PqCodes pq_;
  IvfOptions options_;
  int32_t num_items_ = 0;
  int32_t num_factors_ = 0;
  int32_t num_clusters_ = 0;
  bool use_item_bias_ = false;
};

/// The exact top-k (score desc, id asc) of every user in `users` over the
/// whole of `exact`, from one tiled pass of ScoreBlocksTopK over the
/// catalog spread over `threads` workers: each list equals a full fused scan
/// for that user, for any thread count. Empty lists when the catalog or k
/// is empty.
std::vector<std::vector<ScoredItem>> ExactTopKForUsers(
    const PackedSnapshot& exact, const std::vector<UserId>& users, size_t k,
    int threads);

/// The same lists over the base-order snapshot of `model`, without holding
/// it: each 2048-item tile of the catalog is repacked from the doubles into
/// per-thread scratch (PackedSnapshot::RepackItems, Build's conversion) and
/// scanned there, with the user rows of `rows` — a float copy of the same
/// model in any item order (users are never permuted). The lists equal
/// ExactTopKForUsers over PackedSnapshot::Build(model), bit for bit. This is
/// the recall gate's ground truth: independent of any index's permutation.
std::vector<std::vector<ScoredItem>> ExactTopKForUsers(
    const FactorModel& model, const PackedSnapshot& rows,
    const std::vector<UserId>& users, size_t k, int threads);

/// Measured recall@k of the plain ANN path at `nprobe` — Retrieve through
/// the index, exactly as queries run it — against the exact top-k over
/// `exact` (ExactTopKForUsers on the *base-order* snapshot of the same
/// model — an independent ground truth, so a desynced permutation scores
/// low instead of agreeing with itself). Averages |ann ∩ exact| / k over the
/// GateSampleUsers(num_users, sample_users) users, summed in user order;
/// the ground truth and the ANN queries run over the index's build_threads
/// and the value is bit-identical for any count. Returns 1.0 for an empty
/// catalog.
double MeasureIvfRecall(const PackedSnapshot& exact, const IvfIndex& index,
                        int32_t sample_users, size_t k, int32_t nprobe);

/// The same measurement for the *composed* path — quantized first pass at
/// `rerank_budget` (0 = the index default) over the probes at `nprobe`, then
/// the exact re-rank of the survivors. This is the serving path verbatim, so
/// a corrupted or desynced code book scores low here even though every
/// structural check passes. Returns 0.0 when the index carries no servable
/// codes.
double MeasurePqRecall(const PackedSnapshot& exact, const IvfIndex& index,
                       int32_t sample_users, size_t k, int32_t nprobe,
                       size_t rerank_budget);

/// The measured half of the ANN canary gate: FailedPrecondition (with the
/// measured value in the message) when the recall of the path `index`
/// serves falls below `floor` — MeasurePqRecall's composed path for an index
/// built with IvfOptions::pq (refused outright when its codes are missing),
/// MeasureIvfRecall's otherwise.
Status VerifyAnnRecall(const PackedSnapshot& exact, const IvfIndex& index,
                       int32_t sample_users, size_t k, int32_t nprobe,
                       size_t rerank_budget, double floor,
                       const std::string& context);

/// The recall gate's ground truth as a passed gate leaves it: for each of
/// the GateSampleUsers(num_users, sample_users) users, the exact top-j
/// (score desc, id asc) over the base-order repack of the model it ran on
/// (ExactTopKForUsers' FactorModel form), with k <= j <= 2k while the
/// catalog holds 2k items. The stamp is what the lists were computed under;
/// the next gate may start from them only when it runs under the same
/// stamp.
struct RecallTruth {
  ScoreKernel kernel{};      // scored the lists
  int32_t sample_users = 0;  // the sample size asked for
  size_t k = 0;              // the recall@k the gate measured
  int32_t num_users = 0;     // the model's dimensions
  int32_t num_items = 0;
  int32_t num_factors = 0;
  bool use_item_bias = false;
  std::vector<std::vector<ScoredItem>> lists;  // one per sampled user
};

/// What a publish's index gate may start from: the serving slice it
/// replaces — the model `previous` was built from, the slice's one float
/// copy (its user rows are compared with the candidate's), and the recall
/// truth its gate kept (null when it kept none).
struct GateBaseline {
  const FactorModel* model = nullptr;
  const PackedSnapshot* served = nullptr;
  const RecallTruth* truth = nullptr;
};

/// The k of the publish gate's recall@k contract (BuildGatedIvf).
inline constexpr size_t kGateRecallK = 10;

/// How a publish builds and gates one IVF index (BuildGatedIvf).
struct IvfGateOptions {
  IvfOptions ivf;
  /// recall@kGateRecallK floor at the index's default nprobe, measured
  /// against the exact packed scan; <= 0 skips the measured check (the
  /// dimension and structure checks always run).
  double recall_floor = 0.95;
  /// Recall probe sample: the GateSampleUsers(num_users, recall_users)
  /// users (evenly spaced; can be a few more than recall_users).
  int32_t recall_users = 16;
  /// Where BuildGatedIvf records the wall time (us) of the index build and
  /// of the gate (structure + recall); null records nothing.
  Histogram* build_us = nullptr;
  Histogram* gate_us = nullptr;
  /// Where BuildGatedIvf records the build's IvfBuildPhases, one sample per
  /// phase that ran (kmeans only when the index was trained from scratch,
  /// encode only with IvfOptions::pq); null records nothing. A refused
  /// incremental rebuild's phases add into the full build's samples, so the
  /// phases sum to about build_us.
  Histogram* kmeans_us = nullptr;
  Histogram* assign_us = nullptr;
  Histogram* repack_us = nullptr;
  Histogram* encode_us = nullptr;
};

/// A check of an index as built (BuildGatedIvf's `check_repack`), given
/// the dirty set the build took (null when it had none).
using IvfRepackCheck =
    std::function<Status(const IvfIndex& built, const ItemDelta* delta)>;

/// The one ANN build-and-gate routine, run by every serving publish (one
/// call per shard slice). Builds the index over
/// `model` — incrementally from `previous` (may be null) when its options
/// are compatible and at most half the items changed, else from scratch —
/// runs `check_repack` (when non-empty; a publish runs its packed agreement
/// there, on the index's repack as built, and a refusal refuses the index
/// with no gate verdict counted) on it, fires the kAnnCorruptIndex /
/// kAnnCorruptCodes drills, then refuses it unless its dimensions match
/// `model`, it passes VerifyStructure and (recall_floor > 0) its measured
/// recall@kGateRecallK clears the floor against the exact top lists over
/// the base-order repack of `model` (ExactTopKForUsers' FactorModel form:
/// independent of the index's permutation, so a desynced one scores low
/// instead of agreeing with itself). No per-item CRC is re-checked: the
/// index was built from `model`'s bytes in this call.
///
/// With a `baseline` whose model `previous` was built from, the rebuild
/// takes the DiffItems of `model` against it (timed in the assign phase),
/// and `check_repack` and the recall truth take the same set. The truth
/// starts from baseline->truth when its stamp matches this gate: a sampled
/// user whose row in the index's repack equals its row in baseline->served
/// gets the top of its old list without the dirty items plus the dirty
/// items re-scored (their base-order blocks repacked from the doubles, the
/// kernel ScoreBlocksTopK runs) — exact while >= k clean entries remain —
/// and every other user a full scan. The verdict, the measured value and
/// the Status equal the full gate's. `truth` (may be null) receives the
/// lists this gate ran on when it passed, for the next publish's baseline.
/// `metrics` (may be null) counts ann.index_builds_total,
/// ann.index_rebuilds_incremental_total, ann.index_items_reassigned_total
/// and the ann.recall_gate_pass_total / ann.recall_gate_fail_total verdicts.
Result<std::shared_ptr<const IvfIndex>> BuildGatedIvf(
    const FactorModel& model, const IvfGateOptions& options,
    const IvfIndex* previous, const std::string& context,
    MetricsRegistry* metrics, const GateBaseline* baseline = nullptr,
    RecallTruth* truth = nullptr, const IvfRepackCheck& check_repack = {});

}  // namespace clapf

#endif  // CLAPF_MODEL_IVF_INDEX_H_

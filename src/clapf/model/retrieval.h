#ifndef CLAPF_MODEL_RETRIEVAL_H_
#define CLAPF_MODEL_RETRIEVAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"
#include "clapf/util/top_k.h"

namespace clapf {

/// Items scored per chunk in serving scans. Deadline-aware queries poll the
/// clock (and the fault injector) between chunks, so a query can overrun its
/// budget by at most one chunk's scoring cost.
inline constexpr int32_t kRankerBlockItems = 1024;

/// How long an injected kServeSlowBlock fault stalls one scan chunk. Long
/// enough that a sub-millisecond test deadline deterministically expires.
inline constexpr std::chrono::milliseconds kSlowBlockStall(2);

/// Per-query knobs for ModelServer::Recommend / RecommendBatch. The default
/// constructed value reproduces the classic behaviour: exclude nothing
/// beyond the user's history, fall back to popularity for cold users, no
/// score floor, no deadline.
struct QueryOptions {
  /// Items to skip in addition to the user's history (out-of-range ids are
  /// ignored).
  std::vector<ItemId> exclude;
  /// When true (default), users without history are served the popularity
  /// ranking. When false, cold users get an empty result instead, in every
  /// serving state — callers that have their own cold-start strategy opt
  /// out here.
  bool cold_start_fallback = true;
  /// Drop results scoring below this floor; the result may then hold fewer
  /// than k items.
  std::optional<double> min_score;
  /// Wall-clock budget for the whole call (single query or entire batch).
  /// <= 0 (default) means unbounded. The scoring loop polls the clock every
  /// kRankerBlockItems items, so overrun is bounded by one chunk's cost;
  /// an expired budget yields Status DeadlineExceeded instead of running
  /// unbounded — a batch instead hands back the completed prefix, flagged
  /// (BatchReply).
  std::chrono::microseconds deadline{0};
  /// Serve from the packed SIMD snapshot when one exists: the fused
  /// score+top-k kernel, approximate within PackedScoreBound(). Default
  /// true — but a snapshot exists only where one was built (ModelServer::
  /// PublishModel builds one per slice with ServerOptions::packed), so
  /// training and offline-eval paths stay on the exact double scan and
  /// their goldens stay bit-identical. Set false to force the exact path
  /// even when a snapshot is present.
  bool use_packed = true;
  /// Serve through the IVF approximate index when one exists (a publish
  /// with ServerOptions::ann builds one per slice): probe-list selection +
  /// exact fused re-rank of the shortlisted blocks, sub-linear in the
  /// catalog. Off by default — ANN is approximate *beyond* PackedScoreBound
  /// (it can miss items entirely), so callers opt in per query; without an
  /// index the query silently falls back to the full scan (counted in
  /// ann.fallback_total). Requires use_packed: with the packed path
  /// disabled, ANN is off too.
  bool ann = false;
  /// Probe-list width for ANN queries. 0 (default) = the index's
  /// default_nprobe; any value is clamped to [1, num_clusters]. More probes
  /// = higher recall, more items scanned; nprobe = num_clusters degenerates
  /// to the exact full scan.
  int32_t ann_nprobe = 0;
  /// Quantized first-pass scoring inside the ANN shortlist: stream the int8
  /// codes over the probe ranges, keep the top rerank_budget candidates,
  /// then exact-fused-re-rank only the survivors. Requires `ann` and an
  /// index built with IvfOptions::pq (a pq query against an index without
  /// codes silently serves the plain ANN path, counted in
  /// ann.pq_fallback_total). Lossier than plain ANN in principle — which is
  /// why publishes gate the *composed* path's measured recall — but every
  /// returned score is still exact.
  bool pq = false;
  /// Survivor count the quantized first pass hands to the exact re-rank.
  /// 0 (default) = the index's default_rerank_budget; always clamped up to
  /// k so the re-rank can fill every slot. A budget ≥ the shortlist
  /// degenerates to the plain ANN path bit-identically.
  int32_t rerank_budget = 0;
};

/// The absolute point `options.deadline` expires at, counted from now;
/// nullopt when the budget is unbounded.
std::optional<std::chrono::steady_clock::time_point> DeadlineFrom(
    const QueryOptions& options);

/// Drops the entries of best-to-worst `top` scoring below `floor` (a
/// suffix); no-op without a floor.
void ApplyMinScore(const std::optional<double>& floor,
                   std::vector<ScoredItem>* top);

/// Cross-shard early-reject bar for one scatter-gather query. Each shard
/// publishes its full-heap threshold after every scoring chunk; every shard
/// reads the running maximum and skips scores strictly below it. The k-th
/// best of any shard holding at least k items is a lower bound on the
/// global k-th best (smaller shards stay off the bar), and the rejection
/// test is strict (ties still reach Push for the smaller-id
/// tie-break), so the broadcast can only skip items that cannot be in the
/// global top-k — merged results stay bit-identical to a one-shard scan.
///
/// Relaxed atomics are sufficient: the bar is monotone and a stale read is
/// merely a weaker (always-correct) bound.
class ThresholdBroadcast {
 public:
  ThresholdBroadcast()
      : floor_(-std::numeric_limits<double>::infinity()) {}

  /// Raises the bar to at least `threshold` (monotone max).
  void Raise(double threshold) {
    double cur = floor_.load(std::memory_order_relaxed);
    while (threshold > cur &&
           !floor_.compare_exchange_weak(cur, threshold,
                                         std::memory_order_relaxed)) {
    }
  }

  double Get() const { return floor_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> floor_;
};

/// The scan one Retrieve call ran, in increasing order of specialization
/// (a sharded query reports the maximum over its shards).
enum class RetrievalPath { kNone, kExact, kPacked, kAnn, kAnnPq };

/// The ANN query telemetry of Retrieve, as handles into a MetricsRegistry.
/// Per index consulted (so per shard): ann.probes_total and the
/// ann.shortlist_size / ann.rerank_survivors histograms (power-of-two
/// buckets). Per user query (CountQuery): ann.queries_total,
/// ann.fallback_total, ann.pq_queries_total and ann.pq_fallback_total.
struct RetrievalMetrics {
  explicit RetrievalMetrics(MetricsRegistry* registry);

  /// Counts one user query whose scan took `path` — once, however many
  /// shards it consulted.
  void CountQuery(const QueryOptions& options, RetrievalPath path) const;

  Counter* queries;
  Counter* probes;
  Counter* fallbacks;
  Counter* pq_queries;
  Counter* pq_fallbacks;
  Histogram* shortlist_size;
  Histogram* rerank_survivors;
};

/// What one retrieval scans: the exact model and the optional layers a
/// publish built over it. Non-owning; the retrieval picks the most
/// specialized layer the query allows.
struct RetrievalLayers {
  const FactorModel* model = nullptr;      ///< exact double scan
  const PackedSnapshot* packed = nullptr;  ///< SIMD repack of the catalog
  const IvfIndex* ivf = nullptr;           ///< cluster-ordered index
  /// The item each lane of `packed` holds (an index's local_to_global
  /// table when `packed` is its repack); null: lane i holds item i.
  const int32_t* packed_map = nullptr;

  int32_t num_items() const {
    return model != nullptr    ? model->num_items()
           : packed != nullptr ? packed->num_items()
                               : ivf->num_items();
  }
};

/// Top-k of user `u` over one catalog (local ids [0, layers.num_items())) —
/// the one retrieval routine behind each shard's scatter scan and the
/// publish recall gate. The path, most specialized first:
///
///   ann      (options.ann && use_packed, index over this catalog):
///            SelectProbes widened to cover `min_items` (k plus everything
///            `excluded` may skip), then — with options.pq and a code book —
///            the quantized shortlist at the rerank budget, then the
///            prefetched exact re-rank of the chosen ranges;
///   packed   (use_packed and a snapshot): the fused scan of the catalog,
///            through `packed_map` when the repack is in another order
///            (the (score desc, id asc) answer does not depend on it);
///   exact    the fused exact double scan (ExactScoreTopK).
///
/// Every scan polls the kServeSlowBlock fault, `deadline` (DeadlineExceeded
/// on expiry) and the cross-shard `broadcast` bar (may be null) once per
/// kRankerBlockItems chunk. `excluded` (local ids; may be null for "none")
/// is applied, min_score and cold-start policy are not. `metrics` (may be
/// null) records the per-index ANN telemetry; `path` (may be null)
/// receives the scan taken, also when the scan fails, for
/// RetrievalMetrics::CountQuery.
Result<std::vector<ScoredItem>> Retrieve(
    const RetrievalLayers& layers, UserId u, size_t k,
    const std::vector<bool>* excluded, size_t min_items,
    const QueryOptions& options,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    ThresholdBroadcast* broadcast, const RetrievalMetrics* metrics,
    RetrievalPath* path);

}  // namespace clapf

#endif  // CLAPF_MODEL_RETRIEVAL_H_

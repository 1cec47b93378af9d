#ifndef CLAPF_RECOMMENDER_H_
#define CLAPF_RECOMMENDER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// Reply from Recommender::RecommendBatchPartial: results[i] answers
/// users[i]. When the batch deadline expires mid-flight the work already
/// done is returned rather than discarded; `complete` flags which users
/// finished (an unfinished user's list is empty, never a half-scored
/// ranking).
struct BatchReply {
  std::vector<std::vector<ScoredItem>> results;
  /// complete[i] != 0 iff results[i] holds the finished answer for users[i].
  std::vector<uint8_t> complete;
  /// Number of set flags in `complete`.
  size_t num_complete = 0;
  /// True when the deadline expired before every user finished.
  bool deadline_exceeded = false;
};

/// Serving facade: a trained FactorModel plus the interaction history it was
/// trained on, packaged for answering top-k queries. Covers the gaps a raw
/// model leaves for production use: history exclusion, explicit exclusion
/// lists, popularity fallback for cold users, batched multi-user queries,
/// and model persistence.
class Recommender {
 public:
  /// Builds from a trained model and its training data; both are copied so
  /// the recommender owns its state. Model and data dimensions must agree.
  static Result<Recommender> Create(FactorModel model, Dataset history);

  /// Loads the model from `model_path` (SaveModel format) and pairs it with
  /// `history`.
  static Result<Recommender> Load(const std::string& model_path,
                                  Dataset history);

  /// Top-k unseen items for `u` under `options`. Returns OutOfRange for an
  /// unknown user id and DeadlineExceeded when `options.deadline` expires
  /// mid-scan. A `k` beyond the catalog is clamped to the full ranked
  /// catalog. `Recommend(u, k, {})` is the classic query: history excluded,
  /// cold users served by popularity.
  Result<std::vector<ScoredItem>> Recommend(UserId u, size_t k,
                                            const QueryOptions& options) const;

  /// Top-k for every user in `users`, sharded over a thread pool; result[i]
  /// answers users[i]. All ids are validated up front: one bad id fails the
  /// whole batch with OutOfRange before any scoring work runs. When
  /// `options.deadline` expires mid-batch the call returns DeadlineExceeded;
  /// use RecommendBatchPartial to keep the completed prefix instead.
  Result<std::vector<std::vector<ScoredItem>>> RecommendBatch(
      std::span<const UserId> users, size_t k,
      const QueryOptions& options = {}) const;

  /// Deadline-tolerant batch: identical to RecommendBatch except that an
  /// expired deadline is not an error — the reply carries every completed
  /// user with the rest flagged incomplete. Id validation still fails the
  /// whole call with OutOfRange.
  Result<BatchReply> RecommendBatchPartial(std::span<const UserId> users,
                                           size_t k,
                                           const QueryOptions& options = {})
      const;

  /// Builds and adopts a packed SIMD snapshot of the current model so
  /// queries with QueryOptions::use_packed take the fused fast path. When
  /// `verify_sample_users` > 0 the repack is first checked against the exact
  /// model (VerifyPackedAgreement); a violation is returned and the
  /// recommender stays exact. Convenience for CLI / standalone use; serving
  /// publishes build and gate a snapshot per shard slice.
  Status EnablePacked(int32_t verify_sample_users = 0);

  /// The snapshot packed queries run on, or null when none was built.
  const PackedSnapshot* packed_snapshot() const { return packed_.get(); }

  /// Builds and adopts an IVF index over the current model so queries with
  /// QueryOptions::ann take the sub-linear probe + re-rank path (building
  /// the base packed snapshot first if none exists — ANN implies packed).
  /// When `verify_sample_users` > 0 the index must pass BuildGatedIvf's
  /// gate: VerifyIvfBinding, and additionally VerifyAnnRecall at the
  /// index's default nprobe when `verify_recall_floor` > 0; a violation is
  /// returned and the recommender keeps serving without the index.
  /// Convenience for CLI / standalone use — serving publishes gate each
  /// shard slice's index through the same routine.
  Status EnableIvf(const IvfOptions& options = {},
                   int32_t verify_sample_users = 0,
                   double verify_recall_floor = 0.0, size_t recall_k = 10);

  /// The index ANN queries probe, or null when none was built.
  const IvfIndex* ivf_index() const { return ivf_.get(); }

  /// Predicted relevance score for one (user, item); OutOfRange on bad ids.
  /// Always exact (double path), independent of any packed snapshot.
  Result<double> Score(UserId u, ItemId i) const;

  /// Persists the underlying model.
  Status Save(const std::string& model_path) const;

  /// Routes ranker telemetry into `registry`: ranker.queries_total, the
  /// ranker.query.latency_us histogram, ranker.deadline_exceeded_total, and
  /// the ANN family of RetrievalMetrics, so shortlist inflation and the
  /// survivor distribution are visible in the Prometheus/JSON exports. Null
  /// (default state) disables instrumentation. The registry is not owned
  /// and must outlive every query; copies of the recommender share the same
  /// handles.
  void SetMetrics(MetricsRegistry* registry);

  int32_t num_users() const { return model_.num_users(); }
  int32_t num_items() const { return model_.num_items(); }
  const FactorModel& model() const { return model_; }
  const Dataset& history() const { return history_; }

 private:
  Recommender(FactorModel model, Dataset history);

  /// Single-user kernel behind every query entry point: exclusions and
  /// cold-start here, the scan in Retrieve. `deadline` is an absolute
  /// wall-clock point (nullopt = unbounded) polled between scoring chunks;
  /// expiry yields DeadlineExceeded.
  Result<std::vector<ScoredItem>> RecommendOne(
      UserId u, size_t k, const QueryOptions& options,
      const std::optional<std::chrono::steady_clock::time_point>& deadline)
      const;

  FactorModel model_;
  Dataset history_;
  std::vector<double> popularity_;  // cold-start fallback scores
  // Immutable SIMD repack shared read-only across query threads; null until
  // EnablePacked. Copies of the recommender share it.
  std::shared_ptr<const PackedSnapshot> packed_;
  // Immutable IVF index shared read-only across query threads; null until
  // EnableIvf. Copies of the recommender share it.
  std::shared_ptr<const IvfIndex> ivf_;
  // Telemetry handles (null = off); see SetMetrics.
  Counter* queries_metric_ = nullptr;
  Counter* deadline_metric_ = nullptr;
  Histogram* latency_metric_ = nullptr;
  std::optional<RetrievalMetrics> ann_metrics_;
};

}  // namespace clapf

#endif  // CLAPF_RECOMMENDER_H_

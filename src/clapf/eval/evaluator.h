#ifndef CLAPF_EVAL_EVALUATOR_H_
#define CLAPF_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clapf/core/ranker.h"
#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/obs/metrics.h"

namespace clapf {

/// Top-k metric bundle at one cutoff.
struct MetricsAtK {
  int k = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double one_call = 0.0;
  double ndcg = 0.0;
};

/// Averages over all evaluated users (users with >= 1 test item).
struct EvalSummary {
  std::vector<MetricsAtK> at_k;
  double map = 0.0;
  double mrr = 0.0;
  double auc = 0.0;
  int32_t users_evaluated = 0;

  /// Returns the MetricsAtK for cutoff `k`; aborts if absent.
  const MetricsAtK& AtK(int k) const;

  /// "Prec@5=0.43 Recall@5=0.12 ... MAP=0.29 MRR=0.66".
  std::string ToString() const;
};

/// Ranks all items not observed in training for each user (the paper's
/// protocol: "we rank all the unobserved items based on the predicted
/// scores") and averages ranking metrics over users with test feedback.
class Evaluator {
 public:
  /// Both datasets must outlive the evaluator and share dimensions.
  Evaluator(const Dataset* train, const Dataset* test);

  /// Evaluates `ranker` at every cutoff in `ks` (must be non-empty,
  /// ascending).
  EvalSummary Evaluate(const Ranker& ranker, const std::vector<int>& ks) const;

  /// Convenience for the common single-model case.
  EvalSummary Evaluate(const FactorModel& model,
                       const std::vector<int>& ks) const;

  /// Multi-threaded evaluation, sharded over users: 256-user blocks run
  /// through ParallelForEach, the calling thread among the `num_threads`
  /// that score them. The ranker's ScoreItems must be safe to call
  /// concurrently from several threads (FactorModel qualifies; the neural
  /// trainers use per-instance scratch and do not).
  /// Deterministic: users are split into fixed-size blocks whose partial
  /// sums are reduced in block order, so the summary is identical for every
  /// `num_threads` (it may still differ from Evaluate() in the last ulp,
  /// since the block-wise grouping reorders the floating-point adds).
  EvalSummary EvaluateParallel(const Ranker& ranker,
                               const std::vector<int>& ks,
                               int num_threads) const;

  /// Routes evaluation telemetry into `registry`: eval.runs_total, the
  /// eval.run.latency_us histogram, and the eval.users_evaluated gauge
  /// (users counted by the most recent run). Null disables. Not owned.
  void SetMetrics(MetricsRegistry* registry);

 private:
  // Adds the *sums* (not averages) of every metric over users in
  // [u_begin, u_end) into `sums`; `sums->at_k` must be pre-sized to `ks`.
  void AccumulateRange(const Ranker& ranker, const std::vector<int>& ks,
                       UserId u_begin, UserId u_end, EvalSummary* sums) const;

  // Records one finished run into the telemetry handles (no-op when off).
  void RecordRun(const EvalSummary& summary, double elapsed_us) const;

  const Dataset* train_;
  const Dataset* test_;
  // Telemetry handles (null = off); see SetMetrics.
  Counter* runs_metric_ = nullptr;
  Gauge* users_metric_ = nullptr;
  Histogram* latency_metric_ = nullptr;
};

/// The cutoffs used throughout the paper's figures: {3, 5, 10, 15, 20}.
std::vector<int> PaperCutoffs();

}  // namespace clapf

#endif  // CLAPF_EVAL_EVALUATOR_H_

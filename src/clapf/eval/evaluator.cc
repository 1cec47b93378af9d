#include "clapf/eval/evaluator.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "clapf/eval/ranking_metrics.h"
#include "clapf/util/logging.h"
#include "clapf/util/stopwatch.h"
#include "clapf/util/string_util.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

const MetricsAtK& EvalSummary::AtK(int k) const {
  for (const auto& mk : at_k) {
    if (mk.k == k) return mk;
  }
  CLAPF_CHECK(false) << "no metrics at k=" << k;
  return at_k.front();  // unreachable
}

std::string EvalSummary::ToString() const {
  std::ostringstream os;
  for (const auto& mk : at_k) {
    os << "Prec@" << mk.k << "=" << FormatDouble(mk.precision, 3) << " "
       << "Recall@" << mk.k << "=" << FormatDouble(mk.recall, 3) << " ";
  }
  os << "MAP=" << FormatDouble(map, 3) << " MRR=" << FormatDouble(mrr, 3)
     << " AUC=" << FormatDouble(auc, 3)
     << " users=" << users_evaluated;
  return os.str();
}

Evaluator::Evaluator(const Dataset* train, const Dataset* test)
    : train_(train), test_(test) {
  CLAPF_CHECK(train != nullptr && test != nullptr);
  CLAPF_CHECK(train->num_users() == test->num_users());
  CLAPF_CHECK(train->num_items() == test->num_items());
}

void Evaluator::AccumulateRange(const Ranker& ranker,
                                const std::vector<int>& ks, UserId u_begin,
                                UserId u_end, EvalSummary* sums) const {
  EvalSummary& summary = *sums;
  const int32_t num_items = train_->num_items();
  std::vector<double> scores;
  std::vector<ItemId> ranking;
  std::vector<bool> relevant(static_cast<size_t>(num_items), false);

  for (UserId u = u_begin; u < u_end; ++u) {
    auto test_items = test_->ItemsOf(u);
    if (test_items.empty()) continue;

    ranker.ScoreItems(u, &scores);
    CLAPF_CHECK(scores.size() == static_cast<size_t>(num_items));

    // Candidates: every item not observed during training. Test items that
    // happen to also be in training (shouldn't occur with disjoint splits)
    // are excluded from candidates, matching common practice.
    auto train_items = train_->ItemsOf(u);
    size_t cursor = 0;
    ranking.clear();
    ranking.reserve(static_cast<size_t>(num_items) - train_items.size());
    for (ItemId i = 0; i < num_items; ++i) {
      if (cursor < train_items.size() && train_items[cursor] == i) {
        ++cursor;
        continue;
      }
      ranking.push_back(i);
    }

    // Sort best-first; ties broken by item id for determinism.
    std::sort(ranking.begin(), ranking.end(), [&](ItemId a, ItemId b) {
      double sa = scores[static_cast<size_t>(a)];
      double sb = scores[static_cast<size_t>(b)];
      if (sa != sb) return sa > sb;
      return a < b;
    });

    size_t num_relevant = 0;
    for (ItemId i : test_items) {
      if (!train_->IsObserved(u, i)) {
        relevant[static_cast<size_t>(i)] = true;
        ++num_relevant;
      }
    }
    if (num_relevant > 0) {
      RankedList list{&ranking, &relevant, num_relevant};
      for (size_t ki = 0; ki < ks.size(); ++ki) {
        MetricsAtK& mk = summary.at_k[ki];
        size_t k = static_cast<size_t>(ks[ki]);
        mk.precision += PrecisionAtK(list, k);
        mk.recall += RecallAtK(list, k);
        mk.f1 += F1AtK(list, k);
        mk.one_call += OneCallAtK(list, k);
        mk.ndcg += NdcgAtK(list, k);
      }
      summary.map += AveragePrecision(list);
      summary.mrr += ReciprocalRank(list);
      summary.auc += Auc(list);
      ++summary.users_evaluated;
    }
    for (ItemId i : test_items) relevant[static_cast<size_t>(i)] = false;
  }
}

namespace {

// Converts accumulated metric sums to per-user averages.
void Finalize(EvalSummary* summary) {
  if (summary->users_evaluated <= 0) return;
  const double inv = 1.0 / summary->users_evaluated;
  for (auto& mk : summary->at_k) {
    mk.precision *= inv;
    mk.recall *= inv;
    mk.f1 *= inv;
    mk.one_call *= inv;
    mk.ndcg *= inv;
  }
  summary->map *= inv;
  summary->mrr *= inv;
  summary->auc *= inv;
}

}  // namespace

void Evaluator::SetMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    runs_metric_ = nullptr;
    users_metric_ = nullptr;
    latency_metric_ = nullptr;
    return;
  }
  runs_metric_ = registry->GetCounter("eval.runs_total");
  users_metric_ = registry->GetGauge("eval.users_evaluated");
  latency_metric_ =
      registry->GetHistogram("eval.run.latency_us", LatencyBucketsUs());
}

void Evaluator::RecordRun(const EvalSummary& summary,
                          double elapsed_us) const {
  if (runs_metric_ == nullptr) return;
  runs_metric_->Inc();
  users_metric_->Set(static_cast<double>(summary.users_evaluated));
  latency_metric_->Record(elapsed_us);
}

EvalSummary Evaluator::Evaluate(const Ranker& ranker,
                                const std::vector<int>& ks) const {
  CLAPF_CHECK(!ks.empty());
  CLAPF_CHECK(std::is_sorted(ks.begin(), ks.end()));

  Stopwatch watch;
  EvalSummary summary;
  summary.at_k.resize(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) summary.at_k[i].k = ks[i];
  AccumulateRange(ranker, ks, 0, train_->num_users(), &summary);
  Finalize(&summary);
  RecordRun(summary, watch.ElapsedMicros());
  return summary;
}

EvalSummary Evaluator::EvaluateParallel(const Ranker& ranker,
                                        const std::vector<int>& ks,
                                        int num_threads) const {
  CLAPF_CHECK(!ks.empty());
  CLAPF_CHECK(std::is_sorted(ks.begin(), ks.end()));
  CLAPF_CHECK(num_threads >= 1);
  Stopwatch watch;

  // Users are cut into fixed-size blocks (NOT num_threads-sized shards), one
  // partial summary per block, reduced below in block order. The partition
  // and the reduction order are therefore functions of the dataset alone, so
  // the result is identical — to the last bit — for every num_threads. (It
  // may still differ from serial Evaluate() in the last ulp, since that one
  // accumulates everything into a single partial.)
  const int32_t num_users = train_->num_users();
  constexpr int32_t kBlockUsers = 256;
  const int32_t num_blocks =
      num_users > 0 ? (num_users + kBlockUsers - 1) / kBlockUsers : 0;
  std::vector<EvalSummary> partials(static_cast<size_t>(num_blocks));
  for (auto& partial : partials) {
    partial.at_k.resize(ks.size());
    for (size_t i = 0; i < ks.size(); ++i) partial.at_k[i].k = ks[i];
  }

  ParallelForEach(num_blocks, num_threads, [&](int64_t b) {
    const UserId lo = static_cast<UserId>(b) * kBlockUsers;
    const UserId hi = std::min<UserId>(num_users, lo + kBlockUsers);
    AccumulateRange(ranker, ks, lo, hi, &partials[static_cast<size_t>(b)]);
  });

  EvalSummary summary;
  summary.at_k.resize(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) summary.at_k[i].k = ks[i];
  for (const auto& partial : partials) {
    for (size_t i = 0; i < ks.size(); ++i) {
      summary.at_k[i].precision += partial.at_k[i].precision;
      summary.at_k[i].recall += partial.at_k[i].recall;
      summary.at_k[i].f1 += partial.at_k[i].f1;
      summary.at_k[i].one_call += partial.at_k[i].one_call;
      summary.at_k[i].ndcg += partial.at_k[i].ndcg;
    }
    summary.map += partial.map;
    summary.mrr += partial.mrr;
    summary.auc += partial.auc;
    summary.users_evaluated += partial.users_evaluated;
  }
  Finalize(&summary);
  RecordRun(summary, watch.ElapsedMicros());
  return summary;
}

EvalSummary Evaluator::Evaluate(const FactorModel& model,
                                const std::vector<int>& ks) const {
  FactorModelRanker ranker(&model);
  return Evaluate(ranker, ks);
}

std::vector<int> PaperCutoffs() { return {3, 5, 10, 15, 20}; }

}  // namespace clapf

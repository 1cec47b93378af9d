#include "clapf/model/retrieval.h"

#include <algorithm>
#include <string>
#include <thread>

#include "clapf/model/exact_scan.h"
#include "clapf/model/score_kernel.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {

using Clock = std::chrono::steady_clock;

const char* PathName(RetrievalPath path) {
  switch (path) {
    case RetrievalPath::kAnnPq:
      return "ann+pq";
    case RetrievalPath::kAnn:
      return "ann";
    case RetrievalPath::kPacked:
      return "packed";
    default:
      return "exact";
  }
}

}  // namespace

std::optional<Clock::time_point> DeadlineFrom(const QueryOptions& options) {
  if (options.deadline <= std::chrono::microseconds::zero()) {
    return std::nullopt;
  }
  return Clock::now() + options.deadline;
}

void ApplyMinScore(const std::optional<double>& floor,
                   std::vector<ScoredItem>* top) {
  if (!floor) return;
  auto first_below =
      std::find_if(top->begin(), top->end(),
                   [&](const ScoredItem& s) { return s.score < *floor; });
  top->erase(first_below, top->end());
}

RetrievalMetrics::RetrievalMetrics(MetricsRegistry* registry)
    : queries(registry->GetCounter("ann.queries_total")),
      probes(registry->GetCounter("ann.probes_total")),
      fallbacks(registry->GetCounter("ann.fallback_total")),
      pq_queries(registry->GetCounter("ann.pq_queries_total")),
      pq_fallbacks(registry->GetCounter("ann.pq_fallback_total")),
      shortlist_size(
          registry->GetHistogram("ann.shortlist_size", DrawDepthBuckets())),
      rerank_survivors(registry->GetHistogram("ann.rerank_survivors",
                                              DrawDepthBuckets())) {}

void RetrievalMetrics::CountQuery(const QueryOptions& options,
                                  RetrievalPath path) const {
  if (path == RetrievalPath::kAnn || path == RetrievalPath::kAnnPq) {
    queries->Inc();
    if (path == RetrievalPath::kAnnPq) {
      pq_queries->Inc();
    } else if (options.pq) {
      pq_fallbacks->Inc();  // pq asked for, the index carries no codes
    }
  } else if (path != RetrievalPath::kNone && options.ann &&
             options.use_packed) {
    fallbacks->Inc();  // ann asked for, no index: the full scan served
  }
}

Result<std::vector<ScoredItem>> Retrieve(
    const RetrievalLayers& layers, UserId u, size_t k,
    const std::vector<bool>* excluded, size_t min_items,
    const QueryOptions& options,
    const std::optional<Clock::time_point>& deadline,
    ThresholdBroadcast* broadcast, const RetrievalMetrics* metrics,
    RetrievalPath* path) {
  const int32_t n = layers.num_items();
  const IvfIndex* ivf = layers.ivf;
  RetrievalPath taken;
  if (options.ann && options.use_packed && ivf != nullptr &&
      ivf->num_items() == n) {
    taken = options.pq && ivf->has_pq() ? RetrievalPath::kAnnPq
                                        : RetrievalPath::kAnn;
  } else if (options.use_packed && layers.packed != nullptr) {
    taken = RetrievalPath::kPacked;
  } else {
    CLAPF_CHECK(layers.model != nullptr);
    taken = RetrievalPath::kExact;
  }
  if (path != nullptr) *path = taken;

  thread_local std::vector<IvfProbeRange> probes, rerank, whole;
  const std::vector<IvfProbeRange>* ranges = &whole;
  if (taken >= RetrievalPath::kAnn) {
    // Probe selection: the shortlisted clusters as block-aligned ranges of
    // the index's cluster-ordered repack.
    int32_t probes_used = 0;
    ivf->SelectProbes(u, options.ann_nprobe, min_items, &probes,
                      &probes_used);
    if (metrics != nullptr) {
      metrics->probes->Inc(probes_used);
      metrics->shortlist_size->Record(
          static_cast<double>(IvfIndex::CoveredItems(probes)));
    }
    ranges = &probes;
    if (taken == RetrievalPath::kAnnPq) {
      // Quantized first pass: stream the int8 codes over the probes and
      // narrow the exact re-rank to the blocks holding the rerank_budget
      // best survivors. Exclusions never consume budget; the cross-shard
      // bar is NOT applied to quantized scores (quantization error could
      // push a true top-k item under it) — only to the exact re-rank.
      size_t budget = options.rerank_budget > 0
                          ? static_cast<size_t>(options.rerank_budget)
                          : static_cast<size_t>(std::max<int32_t>(
                                1, ivf->default_rerank_budget()));
      budget = std::max(budget, k);
      int64_t survivors = 0;
      CLAPF_RETURN_IF_ERROR(ivf->QuantizedShortlist(
          u, probes, budget, excluded, deadline, &rerank, &survivors));
      if (metrics != nullptr) {
        metrics->rerank_survivors->Record(static_cast<double>(survivors));
      }
      ranges = &rerank;
    }
  } else {
    whole.assign(1, IvfProbeRange{0, n});
  }

  // The scan: every range in kRankerBlockItems chunks, each chunk polling
  // the fault point, reading the cross-shard bar, scoring, raising the bar
  // from a full heap and checking the deadline. Every kernel feeds the
  // accumulator directly, early-rejecting below max(heap threshold, bar).
  FaultInjector& faults = FaultInjector::Instance();
  TopKAccumulator acc(k);
  ItemId scanned = 0;
  for (size_t ri = 0; ri < ranges->size(); ++ri) {
    // Sparse pq re-rank ranges each start on a cold block; prefetching a
    // few ranges ahead overlaps those misses with scoring.
    if (taken >= RetrievalPath::kAnn && ri + 3 < ranges->size()) {
      ivf->PrefetchRange((*ranges)[ri + 3]);
    }
    const IvfProbeRange& r = (*ranges)[ri];
    for (ItemId lo = r.begin; lo < r.end; lo += kRankerBlockItems) {
      const ItemId hi = std::min<ItemId>(r.end, lo + kRankerBlockItems);
      if (faults.armed() && faults.ShouldFire(FaultPoint::kServeSlowBlock)) {
        std::this_thread::sleep_for(kSlowBlockStall);
      }
      const double bar = broadcast != nullptr
                             ? broadcast->Get()
                             : -std::numeric_limits<double>::infinity();
      if (taken == RetrievalPath::kExact) {
        ExactScoreTopK(*layers.model, u, lo, hi, excluded, &acc, bar);
      } else if (taken == RetrievalPath::kPacked) {
        if (layers.packed_map != nullptr) {
          ScoreBlocksTopKMapped(*layers.packed, u, lo, hi, layers.packed_map,
                                excluded, &acc, bar);
        } else {
          ScoreBlocksTopK(*layers.packed, u, lo, hi, excluded, &acc, bar);
        }
      } else {
        ScoreBlocksTopKMapped(ivf->packed(), u, lo, hi,
                              ivf->local_to_global_data(), excluded, &acc,
                              bar);
      }
      if (broadcast != nullptr && acc.full()) {
        broadcast->Raise(acc.threshold_score());
      }
      scanned += hi - lo;
      if (deadline && Clock::now() > *deadline) {
        return Status::DeadlineExceeded(
            std::string(PathName(taken)) + " query for user " +
            std::to_string(u) + " expired after scoring " +
            std::to_string(scanned) + " of " + std::to_string(n) +
            " items");
      }
    }
  }
  return acc.Take();
}

}  // namespace clapf

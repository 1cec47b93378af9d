#include "clapf/util/top_k.h"

#include <algorithm>

#include "clapf/util/logging.h"

namespace clapf {

TopKAccumulator::TopKAccumulator(size_t k) : k_(k) {
  CLAPF_CHECK(k >= 1);
  heap_.reserve(k + 1);
}

bool TopKAccumulator::Less(const ScoredItem& a, const ScoredItem& b) const {
  // Min-heap ordering: the heap root is the *worst* kept item. A higher score
  // is better; on score ties a smaller item id is better.
  if (a.score != b.score) return a.score < b.score;
  return a.item > b.item;
}

void TopKAccumulator::Push(int32_t item, double score) {
  ScoredItem cand{item, score};
  auto cmp = [this](const ScoredItem& a, const ScoredItem& b) {
    return !Less(a, b);  // std::push_heap builds a max-heap; invert.
  };
  if (heap_.size() < k_) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end(), cmp);
    return;
  }
  if (Less(heap_.front(), cand)) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    heap_.back() = cand;
    std::push_heap(heap_.begin(), heap_.end(), cmp);
  }
}

std::vector<ScoredItem> TopKAccumulator::Take() {
  std::vector<ScoredItem> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [this](const auto& a, const auto& b) {
    return Less(b, a);  // best first
  });
  return out;
}

std::vector<ScoredItem> SelectTopK(const std::vector<double>& scores,
                                   const std::vector<bool>& exclude,
                                   size_t k) {
  TopKAccumulator acc(k);
  for (size_t i = 0; i < scores.size(); ++i) {
    // A score strictly below a full heap's threshold cannot enter, so it
    // skips the out-of-line Push; ties and NaN still reach it.
    if (acc.full() && scores[i] < acc.threshold_score()) continue;
    if (!exclude.empty() && exclude[i]) continue;
    acc.Push(static_cast<int32_t>(i), scores[i]);
  }
  return acc.Take();
}

}  // namespace clapf

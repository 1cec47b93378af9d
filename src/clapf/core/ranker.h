#ifndef CLAPF_CORE_RANKER_H_
#define CLAPF_CORE_RANKER_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/packed_snapshot.h"

namespace clapf {

/// Serving-safe list length: a request for more items than the catalog holds
/// returns the full ranked catalog instead of relying on every caller to
/// bound k themselves.
inline size_t ClampK(size_t k, int32_t num_items) {
  return std::min(k, static_cast<size_t>(std::max<int32_t>(num_items, 0)));
}

/// Bumps `ranker.range_fallback_total` in the default metrics registry (and,
/// in debug builds, logs a one-shot warning). Fired by the base
/// Ranker::ScoreItemRange, whose whole-catalog rescan silently defeats
/// block-granular deadline polling — a non-zero counter means a ranker is
/// missing a real range override.
void NoteRankerRangeFallback();

/// Anything that can score every item for a user. Trainers and models
/// implement this so the Evaluator can rank them uniformly. Lives in core/
/// (not eval/) because it is the seam between the two layers: trainers
/// produce Rankers, the evaluator consumes them.
class Ranker {
 public:
  virtual ~Ranker() = default;

  /// Fills `scores` (resized to the item count) with the predicted relevance
  /// of every item for user `u`. Higher is better.
  virtual void ScoreItems(UserId u, std::vector<double>* scores) const = 0;

  /// Scores only items [begin, end) into (*scores)[begin..end); `scores`
  /// must already be sized to the item count. The base implementation
  /// rescans everything (correct, but defeats block-granular deadline
  /// polling) and reports itself via NoteRankerRangeFallback(); every
  /// in-tree ranker overrides it with a true range kernel.
  virtual void ScoreItemRange(UserId u, ItemId /*begin*/, ItemId /*end*/,
                              std::vector<double>* scores) const {
    NoteRankerRangeFallback();
    ScoreItems(u, scores);
  }
};

/// Adapts a FactorModel to the Ranker interface. Optionally carries a
/// PackedSnapshot of the same model; when present, scoring runs the SIMD
/// packed fast path (approximate within PackedScoreBound) instead of the
/// exact double scan — this is how the serving canary probe and evaluators
/// opt into packed inference.
class FactorModelRanker : public Ranker {
 public:
  /// Exact mode. `model` must outlive the ranker.
  explicit FactorModelRanker(const FactorModel* model) : model_(model) {}

  /// Packed mode: scores come from `packed` (built from `model`); `packed`
  /// may be null, which degrades to exact mode. Both must outlive the
  /// ranker.
  FactorModelRanker(const FactorModel* model, const PackedSnapshot* packed)
      : model_(model), packed_(packed) {}

  void ScoreItems(UserId u, std::vector<double>* scores) const override {
    if (packed_ != nullptr) {
      scores->resize(static_cast<size_t>(packed_->num_items()));
      packed_->ScoreItemRange(u, 0, packed_->num_items(), scores);
      return;
    }
    model_->ScoreAllItems(u, scores);
  }

  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      std::vector<double>* scores) const override {
    if (packed_ != nullptr) {
      packed_->ScoreItemRange(u, begin, end, scores);
      return;
    }
    model_->ScoreItemRange(u, begin, end, scores);
  }

  /// True when scoring runs off the packed snapshot.
  bool packed() const { return packed_ != nullptr; }

 private:
  const FactorModel* model_;
  const PackedSnapshot* packed_ = nullptr;
};

}  // namespace clapf

#endif  // CLAPF_CORE_RANKER_H_

#ifndef CLAPF_SAMPLING_RANK_LIST_H_
#define CLAPF_SAMPLING_RANK_LIST_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"

namespace clapf {

/// Reads a model parameter that HogWild SGD workers may be writing
/// concurrently: a relaxed atomic load (as RelaxedAccess does), so a racing
/// read sees some whole written value instead of being a data race.
inline double LoadRelaxed(const double& x) {
  // atomic_ref requires a non-const referent even for loads.
  return std::atomic_ref<double>(const_cast<double&>(x))
      .load(std::memory_order_relaxed);
}

/// Per-factor item rankings used by DSS and AoBPR (paper §5.1, Step 2):
/// for each latent factor q, all items sorted descending by their factor
/// value V_{i,q}. Rebuilding is O(d · m log m), so callers refresh only every
/// `refresh_interval` draws (the paper resets every log(m)-scaled period).
class FactorRankList {
 public:
  /// `model` must outlive this object.
  explicit FactorRankList(const FactorModel* model);

  /// Rebuilds every factor's ranking from the model's current item factors.
  /// Each factor column is first copied into a key vector, so the sort
  /// compares fixed values even while other SGD workers write the model;
  /// ties break by ascending item id, which makes the order total.
  void Refresh();

  /// Item at `position` in factor `q`'s descending ranking. If `reversed`,
  /// reads the list bottom-up (equivalent to ascending order).
  ItemId ItemAt(int32_t q, size_t position, bool reversed) const;

  int32_t num_factors() const { return model_->num_factors(); }
  int32_t num_items() const { return model_->num_items(); }

  /// Number of Refresh() calls so far (diagnostics/tests).
  int64_t refresh_count() const { return refresh_count_; }

 private:
  const FactorModel* model_;
  // rankings_[q] holds item ids sorted by V_{.,q} descending.
  std::vector<std::vector<ItemId>> rankings_;
  std::vector<double> keys_;  // one factor column, scratch for Refresh
  int64_t refresh_count_ = 0;
};

}  // namespace clapf

#endif  // CLAPF_SAMPLING_RANK_LIST_H_

#ifndef CLAPF_SAMPLING_RANK_LIST_H_
#define CLAPF_SAMPLING_RANK_LIST_H_

#include <atomic>
#include <bit>
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

/// Order-preserving key of a factor value for a descending ranking: for
/// non-NaN values, DescendingKey(a) < DescendingKey(b) iff a > b, and the
/// keys are equal iff the values compare equal (−0.0 is folded into +0.0).
/// Ordering ids by (key, id) therefore reproduces the (value descending,
/// id ascending) comparator exactly; `key ^ ~0` gives the ascending order.
/// NaN, on which that comparator is not a strict weak ordering, gets a key
/// outside every number's: a NaN with the sign bit clear ranks above +inf,
/// one with it set below −inf.
inline uint64_t DescendingKey(double v) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  if ((bits << 1) == 0) bits = 0;  // −0.0 ties +0.0
  // Negative values keep their bits (larger magnitude, larger key); the
  // rest flip their magnitude bits below the sign.
  const uint64_t negative = static_cast<uint64_t>(
      static_cast<int64_t>(bits) >> 63);
  return bits ^ (~negative >> 1);
}

/// Per-factor item rankings used by DSS and AoBPR (paper §5.1, Step 2):
/// for each latent factor q, all items sorted descending by their factor
/// value V_{i,q}, ties by ascending item id. A refresh is one transposed
/// pass over the item factors into DescendingKey columns and, per factor, a
/// stable LSD radix sort of the ids on the keys' high 32 bits plus a
/// comparison sort of each run that ties there: O(d · m) for distinct
/// values, O(d · m log m) at worst. Callers still refresh only every
/// `refresh_interval` draws (the paper resets every log(m)-scaled period).
class FactorRankList {
 public:
  /// `model` must outlive this object.
  explicit FactorRankList(const FactorModel* model);

  /// Rebuilds every factor's ranking from the model's current item factors.
  /// The keys are copied out of the model once, so every sort step reads
  /// fixed values even while other SGD workers write the model.
  void Refresh();

  /// Item at `position` in factor `q`'s descending ranking. If `reversed`,
  /// reads the list bottom-up (equivalent to ascending order).
  ItemId ItemAt(int32_t q, size_t position, bool reversed) const;

  int32_t num_factors() const { return model_->num_factors(); }
  int32_t num_items() const { return model_->num_items(); }

  /// Number of Refresh() calls so far (diagnostics/tests).
  int64_t refresh_count() const { return refresh_count_; }

 private:
  // Orders column `q` of keys_ into its ranking.
  void SortFactor(int32_t q);

  const FactorModel* model_;
  // rankings_[q * m + p]: the item at position p of factor q's ranking.
  std::vector<ItemId> rankings_;
  // Refresh scratch: the factor-major key matrix (one copy of the item
  // factors) and two ping-pong buffers of (key high half << 32 | id).
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sort_a_, sort_b_;
  int64_t refresh_count_ = 0;
};

}  // namespace clapf

#endif  // CLAPF_SAMPLING_RANK_LIST_H_

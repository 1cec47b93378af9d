#ifndef CLAPF_MODEL_FACTOR_MODEL_H_
#define CLAPF_MODEL_FACTOR_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/util/random.h"
#include "clapf/util/top_k.h"

namespace clapf {

/// Matrix-factorization predictor f_ui = U_u · V_i + b_i (paper §3.1): a
/// latent vector per user and item plus an item bias. This is the model
/// learned by BPR, MPR, CLiMF, WMF, and CLAPF.
class FactorModel {
 public:
  /// Allocates a model with all parameters zero.
  FactorModel(int32_t num_users, int32_t num_items, int32_t num_factors,
              bool use_item_bias = true);

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_factors() const { return num_factors_; }
  bool use_item_bias() const { return use_item_bias_; }

  /// Draws all factors from N(0, stddev²); biases start at zero. This is the
  /// standard small-Gaussian initialization used by the paper's code release.
  void InitGaussian(Rng& rng, double stddev = 0.01);

  /// Draws all factors from U(-range, range); biases zero.
  void InitUniform(Rng& rng, double range = 0.01);

  /// Predicted relevance score f_ui.
  double Score(UserId u, ItemId i) const;

  /// Fills `scores` (resized to num_items) with f_ui for every item.
  void ScoreAllItems(UserId u, std::vector<double>* scores) const;

  /// Scores only the half-open item range [begin, end) into
  /// (*scores)[begin..end); `scores` must already be sized to num_items.
  /// Runs ExactScoreItems (exact_scan.h): the bits of Score for every item,
  /// four items per vector under the AVX2 kernel.
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      std::vector<double>* scores) const;

  /// True iff every parameter (factors and biases) is finite — the cheap
  /// half of the serving canary gate.
  bool AllFinite() const;

  /// Top-k items for `u` by score, excluding the user's observed items in
  /// `exclude` (pass nullptr to rank everything).
  std::vector<ScoredItem> TopKForUser(UserId u, size_t k,
                                      const Dataset* exclude) const;

  /// Mutable views of the parameter blocks (contiguous, length num_factors).
  std::span<double> UserFactors(UserId u) {
    return {&user_factors_[static_cast<size_t>(u) * num_factors_],
            static_cast<size_t>(num_factors_)};
  }
  std::span<const double> UserFactors(UserId u) const {
    return {&user_factors_[static_cast<size_t>(u) * num_factors_],
            static_cast<size_t>(num_factors_)};
  }
  std::span<double> ItemFactors(ItemId i) {
    return {&item_factors_[static_cast<size_t>(i) * num_factors_],
            static_cast<size_t>(num_factors_)};
  }
  std::span<const double> ItemFactors(ItemId i) const {
    return {&item_factors_[static_cast<size_t>(i) * num_factors_],
            static_cast<size_t>(num_factors_)};
  }
  double& ItemBias(ItemId i) { return item_bias_[static_cast<size_t>(i)]; }
  double ItemBias(ItemId i) const { return item_bias_[static_cast<size_t>(i)]; }

  /// Raw parameter storage, exposed for serialization and tests.
  const std::vector<double>& user_factor_data() const { return user_factors_; }
  const std::vector<double>& item_factor_data() const { return item_factors_; }
  const std::vector<double>& item_bias_data() const { return item_bias_; }

  /// Mutable raw storage, exposed for checkpoint restore and the divergence
  /// guard's rollback path. Callers must not resize these vectors.
  std::vector<double>& mutable_user_factor_data() { return user_factors_; }
  std::vector<double>& mutable_item_factor_data() { return item_factors_; }
  std::vector<double>& mutable_item_bias_data() { return item_bias_; }

  /// Squared L2 norm of all parameters (regularization diagnostics).
  double SquaredNorm() const;

  /// Grows the model in place to `new_users` x `new_items` (each must be >=
  /// the current dimension). Existing parameters are bit-preserved; the new
  /// user rows are drawn first, then the new item rows (factor order within
  /// a row), from N(0, stddev²) — zeros when stddev <= 0, consuming no rng
  /// draws. New item biases start at zero. This is the online-ingest path's
  /// on-the-fly allocation of unseen user/item ids: given the same rng state
  /// and target dimensions the expansion is bit-deterministic, which the
  /// crash-resume handshake relies on.
  void ExpandTo(int32_t new_users, int32_t new_items, Rng& rng,
                double stddev = 0.01);

  /// Overwrites this model's parameters with `source`'s user factors and
  /// its items [begin, begin + num_items()), renumbered to
  /// [0, num_items()); the two models share users, factor count and bias
  /// flag. A score f_ui depends only on u's and i's own parameters, so the
  /// copy predicts bit-identical doubles for its items — the invariant
  /// per-shard serving slices are built on. The copy runs in tiles over
  /// `threads` workers; the bytes do not depend on the count.
  void CopyItemsFrom(const FactorModel& source, ItemId begin, int threads);

 private:
  int32_t num_users_;
  int32_t num_items_;
  int32_t num_factors_;
  bool use_item_bias_;
  std::vector<double> user_factors_;  // num_users x num_factors, row-major
  std::vector<double> item_factors_;  // num_items x num_factors, row-major
  std::vector<double> item_bias_;     // num_items (zeros when bias disabled)
};

}  // namespace clapf

#endif  // CLAPF_MODEL_FACTOR_MODEL_H_

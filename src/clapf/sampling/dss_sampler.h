#ifndef CLAPF_SAMPLING_DSS_SAMPLER_H_
#define CLAPF_SAMPLING_DSS_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/obs/metrics.h"
#include "clapf/sampling/geometric.h"
#include "clapf/sampling/rank_list.h"
#include "clapf/sampling/sampler.h"
#include "clapf/util/random.h"

namespace clapf {

/// Which CLAPF instantiation the sampler feeds; DSS orients its rank lists
/// differently per variant (paper §5.2, Step 4). kNdcg is this library's
/// extension instantiation (the paper's conclusion invites further smoothed
/// listwise metrics); it shares the MRR orientation.
enum class ClapfVariant { kMap, kMrr, kNdcg };

/// Options for the Double Sampling Strategy.
struct DssOptions {
  ClapfVariant variant = ClapfVariant::kMap;
  /// Adaptively sample the positive companion k (DSS / "Positive Sampling").
  bool adaptive_positive = true;
  /// Adaptively sample the negative j (DSS / "Negative Sampling").
  bool adaptive_negative = true;
  /// Geometric head mass; smaller = more aggressive oversampling.
  double tail_fraction = 0.2;
  /// Draws between rank-list rebuilds; 0 = auto (max(256, m * ceil(log2(m))
  /// / 8), echoing the paper's log(m)-scaled reset rule at single-draw
  /// granularity, with a floor of 256 draws for small catalogs). Only the
  /// adaptive negative reads the rank lists: with `adaptive_negative` off
  /// the sampler never builds or refreshes them.
  int64_t refresh_interval = 0;
  /// Telemetry sink; null disables sampler metrics. When set, the sampler
  /// emits sampler.dss.draws_total, sampler.dss.rebuilds_total,
  /// sampler.dss.uniform_fallbacks_total, and the
  /// sampler.dss.negative_draw_depth histogram (geometric rank position of
  /// each accepted adaptive negative). Not owned; must outlive the sampler.
  MetricsRegistry* metrics = nullptr;
};

/// Double Sampling Strategy (paper §5.2): item i is uniform over I_u^+; the
/// companion k and the negative j are drawn from factor-ranked item lists
/// with geometric position sampling:
///  - pick a random latent factor q, orient the descending V_{.,q} list by
///    sgn(U_{u,q});
///  - CLAPF-MAP: k geometric from the *bottom* among observed items, j
///    geometric from the *top* among unobserved items;
///  - CLAPF-MRR: both k and j geometric from the *top*.
/// Disabling one of the adaptive halves yields the paper's "Positive
/// Sampling" / "Negative Sampling" ablations (Fig. 4).
///
/// The companion k is re-ranked at the model's current values on every draw:
/// see ObservedItemAtRank.
class DssSampler : public TripleSampler {
 public:
  /// `dataset` and `model` must outlive the sampler; the model is read on
  /// every draw so the sampler adapts as training progresses.
  DssSampler(const Dataset* dataset, const FactorModel* model,
             const DssOptions& options, uint64_t seed);

  Triple Sample() override;
  const char* name() const override;

  /// Number of rank-list rebuilds so far (tests/diagnostics); always 0 with
  /// `adaptive_negative` off.
  int64_t refresh_count() const {
    return rank_list_ ? rank_list_->refresh_count() : 0;
  }

 private:
  // Draws k from the user's observed items: geometric rank over their
  // factor-q values, from the top (largest first) or bottom.
  ItemId SampleObservedAdaptive(UserId u, int32_t q, bool reversed,
                                bool from_top);
  // Draws j from the unobserved items via the global factor ranking.
  ItemId SampleUnobservedAdaptive(UserId u, int32_t q, bool reversed);

  void MaybeRefresh();

  const Dataset* dataset_;
  const FactorModel* model_;
  DssOptions options_;
  Rng rng_;
  std::vector<UserId> active_users_;
  // Built only when the adaptive negative reads it.
  std::optional<FactorRankList> rank_list_;
  GeometricRankSampler geometric_;
  int64_t draws_since_refresh_ = 0;
  int64_t refresh_interval_ = 0;
  // Telemetry handles (null when options_.metrics is null).
  Counter* draws_metric_ = nullptr;
  Counter* rebuilds_metric_ = nullptr;
  Counter* fallbacks_metric_ = nullptr;
  Histogram* depth_metric_ = nullptr;
  // Scratch for ObservedItemAtRank.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> select_scratch_;
};

/// The DSS positive pick: the item at 0-based rank `nth` of `items` (a
/// user's observed items, in ascending id order as Dataset::ItemsOf gives
/// them) ordered by factor-q value V_{i,q} descending, or ascending when
/// `reversed`, with ties broken by ascending id. This is the element
/// `std::nth_element` finds over (±V_{i,q}, id) pairs under that comparator,
/// found instead by selecting the nth DescendingKey K with a branchless
/// three-way quickselect (depth-limited, falling back to std::nth_element)
/// and returning the (nth − #{key < K})-th item whose key is K. Values are
/// read with relaxed loads. `keys` and `scratch` are reusable buffers.
ItemId ObservedItemAtRank(const FactorModel& model,
                          std::span<const ItemId> items, int32_t q,
                          bool reversed, size_t nth,
                          std::vector<uint64_t>* keys,
                          std::vector<uint64_t>* scratch);

}  // namespace clapf

#endif  // CLAPF_SAMPLING_DSS_SAMPLER_H_

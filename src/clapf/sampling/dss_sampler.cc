#include "clapf/sampling/dss_sampler.h"

#include <algorithm>
#include <cmath>

#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"

namespace clapf {

DssSampler::DssSampler(const Dataset* dataset, const FactorModel* model,
                       const DssOptions& options, uint64_t seed)
    : dataset_(dataset),
      model_(model),
      options_(options),
      rng_(seed),
      active_users_(TrainableUsers(*dataset)),
      rank_list_(model),
      geometric_(options.tail_fraction) {
  CLAPF_CHECK(dataset != nullptr && model != nullptr);
  CLAPF_CHECK(dataset->num_items() == model->num_items());
  CLAPF_CHECK(!active_users_.empty());
  if (options_.refresh_interval > 0) {
    refresh_interval_ = options_.refresh_interval;
  } else {
    const double m = static_cast<double>(std::max(dataset->num_items(), 2));
    refresh_interval_ = static_cast<int64_t>(
        std::max(256.0, m * std::ceil(std::log2(m)) / 8.0));
  }
  if (options_.metrics != nullptr) {
    draws_metric_ = options_.metrics->GetCounter("sampler.dss.draws_total");
    rebuilds_metric_ =
        options_.metrics->GetCounter("sampler.dss.rebuilds_total");
    fallbacks_metric_ =
        options_.metrics->GetCounter("sampler.dss.uniform_fallbacks_total");
    depth_metric_ = options_.metrics->GetHistogram(
        "sampler.dss.negative_draw_depth", DrawDepthBuckets());
  }
}

const char* DssSampler::name() const {
  if (options_.adaptive_positive && options_.adaptive_negative) return "DSS";
  if (options_.adaptive_positive) return "PositiveSampling";
  if (options_.adaptive_negative) return "NegativeSampling";
  return "Uniform(DSS-degenerate)";
}

void DssSampler::MaybeRefresh() {
  if (++draws_since_refresh_ >= refresh_interval_) {
    rank_list_.Refresh();
    draws_since_refresh_ = 0;
    if (rebuilds_metric_ != nullptr) rebuilds_metric_->Inc();
  }
}

ItemId DssSampler::SampleObservedAdaptive(UserId u, int32_t q, bool reversed,
                                          bool from_top) {
  auto items = dataset_->ItemsOf(u);
  if (items.size() == 1) return items[0];
  scratch_.clear();
  scratch_.reserve(items.size());
  for (ItemId i : items) {
    const double v =
        LoadRelaxed(model_->ItemFactors(i)[static_cast<size_t>(q)]);
    scratch_.emplace_back(reversed ? -v : v, i);
  }
  size_t pos = geometric_.Sample(scratch_.size(), rng_);
  // from_top: pos-th largest value; otherwise pos-th smallest.
  size_t nth = from_top ? pos : scratch_.size() - 1 - pos;
  std::nth_element(
      scratch_.begin(), scratch_.begin() + static_cast<ptrdiff_t>(nth),
      scratch_.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
  return scratch_[nth].second;
}

ItemId DssSampler::SampleUnobservedAdaptive(UserId u, int32_t q,
                                            bool reversed) {
  const size_t m = static_cast<size_t>(dataset_->num_items());
  // Geometric draws concentrate near the head; observed hits are rejected.
  for (int attempt = 0; attempt < 64; ++attempt) {
    size_t pos = geometric_.Sample(m, rng_);
    ItemId j = rank_list_.ItemAt(q, pos, reversed);
    if (!dataset_->IsObserved(u, j)) {
      if (depth_metric_ != nullptr) {
        depth_metric_->Record(static_cast<double>(pos + 1));
      }
      return j;
    }
  }
  if (fallbacks_metric_ != nullptr) fallbacks_metric_->Inc();
  return SampleUnobservedUniform(*dataset_, u, rng_);
}

Triple DssSampler::Sample() {
  MaybeRefresh();
  if (draws_metric_ != nullptr) draws_metric_->Inc();

  Triple t;
  t.u = active_users_[rng_.Uniform(active_users_.size())];
  auto items = dataset_->ItemsOf(t.u);
  t.i = items[rng_.Uniform(items.size())];

  // Step (2)-(3): random factor q, orientation from sgn(U_{u,q}).
  const int32_t q =
      static_cast<int32_t>(rng_.Uniform(
          static_cast<uint64_t>(model_->num_factors())));
  const bool reversed =
      LoadRelaxed(model_->UserFactors(t.u)[static_cast<size_t>(q)]) < 0.0;

  // Step (4): CLAPF-MAP wants a low-scored companion k (small f_uk makes the
  // listwise margin f_uk - f_ui informative); CLAPF-MRR wants a high-scored
  // one. The negative j is oversampled from the head in both variants.
  const bool k_from_top = options_.variant != ClapfVariant::kMap;
  if (options_.adaptive_positive) {
    t.k = SampleObservedAdaptive(t.u, q, reversed, k_from_top);
  } else {
    t.k = items[rng_.Uniform(items.size())];
  }
  if (options_.adaptive_negative) {
    t.j = SampleUnobservedAdaptive(t.u, q, reversed);
  } else {
    t.j = SampleUnobservedUniform(*dataset_, t.u, rng_);
  }
  return t;
}

}  // namespace clapf

#include "clapf/sampling/aobpr_sampler.h"

#include <algorithm>
#include <cmath>

#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"

namespace clapf {

AobprPairSampler::AobprPairSampler(const Dataset* dataset,
                                   const FactorModel* model,
                                   const Options& options, uint64_t seed)
    : dataset_(dataset),
      model_(model),
      options_(options),
      rng_(seed),
      active_users_(TrainableUsers(*dataset)),
      rank_list_(model),
      geometric_(options.tail_fraction) {
  CLAPF_CHECK(dataset != nullptr && model != nullptr);
  CLAPF_CHECK(!active_users_.empty());
  if (options_.refresh_interval > 0) {
    refresh_interval_ = options_.refresh_interval;
  } else {
    const double m = static_cast<double>(std::max(dataset->num_items(), 2));
    refresh_interval_ = static_cast<int64_t>(
        std::max(256.0, m * std::ceil(std::log2(m)) / 8.0));
  }
  if (options_.metrics != nullptr) {
    draws_metric_ = options_.metrics->GetCounter("sampler.aobpr.draws_total");
    rebuilds_metric_ =
        options_.metrics->GetCounter("sampler.aobpr.rebuilds_total");
    fallbacks_metric_ =
        options_.metrics->GetCounter("sampler.aobpr.uniform_fallbacks_total");
    depth_metric_ = options_.metrics->GetHistogram(
        "sampler.aobpr.negative_draw_depth", DrawDepthBuckets());
  }
}

PairSample AobprPairSampler::Sample() {
  if (++draws_since_refresh_ >= refresh_interval_) {
    rank_list_.Refresh();
    draws_since_refresh_ = 0;
    if (rebuilds_metric_ != nullptr) rebuilds_metric_->Inc();
  }
  if (draws_metric_ != nullptr) draws_metric_->Inc();

  PairSample p;
  p.u = active_users_[rng_.Uniform(active_users_.size())];
  auto items = dataset_->ItemsOf(p.u);
  p.i = items[rng_.Uniform(items.size())];

  const int32_t q = static_cast<int32_t>(
      rng_.Uniform(static_cast<uint64_t>(model_->num_factors())));
  const bool reversed =
      LoadRelaxed(model_->UserFactors(p.u)[static_cast<size_t>(q)]) < 0.0;
  const size_t m = static_cast<size_t>(dataset_->num_items());
  for (int attempt = 0; attempt < 64; ++attempt) {
    size_t pos = geometric_.Sample(m, rng_);
    ItemId j = rank_list_.ItemAt(q, pos, reversed);
    if (!dataset_->IsObserved(p.u, j)) {
      if (depth_metric_ != nullptr) {
        depth_metric_->Record(static_cast<double>(pos + 1));
      }
      p.j = j;
      return p;
    }
  }
  if (fallbacks_metric_ != nullptr) fallbacks_metric_->Inc();
  p.j = SampleUnobservedUniform(*dataset_, p.u, rng_);
  return p;
}

}  // namespace clapf

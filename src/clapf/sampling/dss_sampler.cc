#include "clapf/sampling/dss_sampler.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {

// 1 if x < y, else 0: the borrow out of x − y, taken from a 128-bit
// subtraction so that it compiles to sub/sbb. Written as a plain compare,
// GCC turns the partition below back into a branch on it, and that branch
// mispredicts on about half the keys.
inline size_t LessBit(uint64_t x, uint64_t y) {
  using U128 = unsigned __int128;
  return static_cast<size_t>((static_cast<U128>(x) - y) >> 64) & 1;
}

// The key at smallest-first rank `nth` of keys[0, n); sets *less to the
// number of keys below it. A three-way quickselect: each round writes every
// key to both ends of the destination and advances the cursor its compare
// selects (no data-dependent branch), so the keys below the median-of-three
// pivot gather at the front and those above it at the back, ping-ponging
// between the two halves of `scratch`. After 2·bit_width(n) rounds the
// remaining range goes to std::nth_element, so no input makes it quadratic.
uint64_t SelectKey(const uint64_t* keys, size_t n, size_t nth, size_t* less,
                   std::vector<uint64_t>* scratch) {
  // Grow only: resizing down and up again would zero-fill on every draw.
  if (scratch->size() < 2 * n) scratch->resize(2 * n);
  uint64_t* const halves[2] = {scratch->data(), scratch->data() + n};
  const uint64_t* src = keys;
  size_t len = n;
  size_t k = nth;
  size_t below = 0;
  for (int round = 0;; ++round) {
    uint64_t* dst = halves[round & 1];
    if (round == 2 * static_cast<int>(std::bit_width(n))) {
      std::copy(src, src + len, dst);
      std::nth_element(dst, dst + k, dst + len);
      const uint64_t kth = dst[k];
      for (size_t x = 0; x < k; ++x) below += dst[x] < kth ? 1 : 0;
      *less = below;
      return kth;
    }
    const uint64_t a = src[0];
    const uint64_t b = src[len / 2];
    const uint64_t c = src[len - 1];
    const uint64_t pivot =
        std::max(std::min(a, b), std::min(std::max(a, b), c));
    size_t lo = 0;
    size_t hi = 0;
    for (size_t x = 0; x < len; ++x) {
      const uint64_t v = src[x];
      const size_t is_less = LessBit(v, pivot);
      const size_t is_greater = LessBit(pivot, v);
      dst[lo] = v;
      dst[len - 1 - hi] = v;
      lo += is_less;
      hi += is_greater;
    }
    if (k < lo) {
      src = dst;
      len = lo;
    } else if (k < len - hi) {
      *less = below + lo;
      return pivot;
    } else {
      below += len - hi;
      k -= len - hi;
      src = dst + (len - hi);
      len = hi;
    }
  }
}

}  // namespace

ItemId ObservedItemAtRank(const FactorModel& model,
                          std::span<const ItemId> items, int32_t q,
                          bool reversed, size_t nth,
                          std::vector<uint64_t>* keys,
                          std::vector<uint64_t>* scratch) {
  const size_t n = items.size();
  CLAPF_DCHECK(nth < n);
  const size_t d = static_cast<size_t>(model.num_factors());
  const double* column =
      model.item_factor_data().data() + static_cast<size_t>(q);
  const uint64_t flip = reversed ? ~uint64_t{0} : 0;
  if (keys->size() < n) keys->resize(n);
  uint64_t* key = keys->data();
  for (size_t x = 0; x < n; ++x) {
    key[x] = DescendingKey(
                 LoadRelaxed(column[static_cast<size_t>(items[x]) * d])) ^
             flip;
  }
  size_t less = 0;
  const uint64_t kth = SelectKey(key, n, nth, &less, scratch);
  // Ranks [0, less) hold the keys below K; the items keyed K follow them in
  // id order, which is the order of the row.
  size_t ties = nth - less;
  for (size_t x = 0; x < n; ++x) {
    if (key[x] == kth && ties-- == 0) return items[x];
  }
  CLAPF_CHECK(false) << "rank " << nth << " not found among " << n << " keys";
  return items[0];
}

DssSampler::DssSampler(const Dataset* dataset, const FactorModel* model,
                       const DssOptions& options, uint64_t seed)
    : dataset_(dataset),
      model_(model),
      options_(options),
      rng_(seed),
      active_users_(TrainableUsers(*dataset)),
      geometric_(options.tail_fraction) {
  CLAPF_CHECK(dataset != nullptr && model != nullptr);
  CLAPF_CHECK(dataset->num_items() == model->num_items());
  CLAPF_CHECK(!active_users_.empty());
  if (options_.adaptive_negative) rank_list_.emplace(model);
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
  if (!rank_list_) return;
  if (++draws_since_refresh_ >= refresh_interval_) {
    rank_list_->Refresh();
    draws_since_refresh_ = 0;
    if (rebuilds_metric_ != nullptr) rebuilds_metric_->Inc();
  }
}

ItemId DssSampler::SampleObservedAdaptive(UserId u, int32_t q, bool reversed,
                                          bool from_top) {
  auto items = dataset_->ItemsOf(u);
  if (items.size() == 1) return items[0];
  const size_t pos = geometric_.Sample(items.size(), rng_);
  // from_top: pos-th largest value; otherwise pos-th smallest.
  const size_t nth = from_top ? pos : items.size() - 1 - pos;
  return ObservedItemAtRank(*model_, items, q, reversed, nth, &keys_,
                            &select_scratch_);
}

ItemId DssSampler::SampleUnobservedAdaptive(UserId u, int32_t q,
                                            bool reversed) {
  const size_t m = static_cast<size_t>(dataset_->num_items());
  // Geometric draws concentrate near the head; observed hits are rejected.
  for (int attempt = 0; attempt < 64; ++attempt) {
    size_t pos = geometric_.Sample(m, rng_);
    ItemId j = rank_list_->ItemAt(q, pos, reversed);
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

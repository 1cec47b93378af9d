#include "clapf/model/exact_scan.h"

#include <cstddef>

#include "clapf/model/score_kernel.h"
#include "clapf/util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CLAPF_EXACT_SCAN_X86 1
#endif

namespace clapf {
namespace {

// One user's side of the scan over a model's item rows.
struct ScanRows {
  const double* user;   // d factors
  const double* items;  // num_items × d, row-major
  const double* bias;   // num_items; nullptr when the model has no bias
  std::size_t d;
};

ScanRows RowsOf(const FactorModel& model, UserId u) {
  const std::size_t d = static_cast<std::size_t>(model.num_factors());
  return {model.user_factor_data().data() + static_cast<std::size_t>(u) * d,
          model.item_factor_data().data(),
          model.use_item_bias() ? model.item_bias_data().data() : nullptr, d};
}

// The scalar loop: hands sink(i, f_ui) every item of [begin, end) in
// ascending order. The bias test is hoisted out of the scan, so one branch
// selects a loop body instead of every item paying it.
template <typename Sink>
inline void ScanScalar(const ScanRows& r, ItemId begin, ItemId end,
                       Sink&& sink) {
  if (r.bias != nullptr) {
    for (ItemId i = begin; i < end; ++i) {
      const double* vf = r.items + static_cast<std::size_t>(i) * r.d;
      double s = r.bias[i];
      for (std::size_t f = 0; f < r.d; ++f) s += r.user[f] * vf[f];
      sink(i, s);
    }
  } else {
    for (ItemId i = begin; i < end; ++i) {
      const double* vf = r.items + static_cast<std::size_t>(i) * r.d;
      double s = 0.0;
      for (std::size_t f = 0; f < r.d; ++f) s += r.user[f] * vf[f];
      sink(i, s);
    }
  }
}

// The heap side of the fused scan. A score strictly below the bar —
// max(the threshold of a full heap, the caller's floor) — is dropped before
// the exclusion lookup; the bar is recomputed after every push, so each
// item meets the bar the packed kernels would hold it to. A NaN threshold
// never compares above the floor, so it never raises the bar.
class TopKFilter {
 public:
  TopKFilter(const std::vector<bool>* excluded, TopKAccumulator* acc,
             double floor)
      : excluded_(excluded), acc_(acc), floor_(floor) {
    Rebar();
  }

  double bar() const { return bar_; }

  void Offer(ItemId i, double s) {
    if (s < bar_) return;
    if (excluded_ != nullptr && (*excluded_)[static_cast<std::size_t>(i)]) {
      return;
    }
    acc_->Push(i, s);
    Rebar();
  }

 private:
  void Rebar() {
    bar_ = acc_->full() && acc_->threshold_score() > floor_
               ? acc_->threshold_score()
               : floor_;
  }

  const std::vector<bool>* excluded_;
  TopKAccumulator* acc_;
  double floor_;
  double bar_ = 0.0;
};

#ifdef CLAPF_EXACT_SCAN_X86
// Four-item groups per pass. Each group is one serial add chain per lane;
// two groups in flight hide the add latency behind the loads and unpacks.
constexpr int kPassGroups = 2;

// The scores of the 4·G items starting at item i: lane j of out[g] is item
// i + 4g + j. Every lane runs the scalar loop's chain — start from the bias
// (or +0.0), then per factor a rounded multiply and a rounded add. The
// variant enables AVX2 only, never FMA, so no multiply-add is fused. A
// factor pair is read as one 128-bit load per item row; items 0 and 2 share
// one register, 1 and 3 the other, and unpacklo/unpackhi turn the pair into
// factor-major vectors. Loads stay inside the rows and biases of the group.
template <int G>
__attribute__((target("avx2"), always_inline)) inline void GroupScoresAvx2(
    const ScanRows& r, ItemId i, __m256d* out) {
  const std::size_t d = r.d;
  const double* rows = r.items + static_cast<std::size_t>(i) * d;
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    out[g] = r.bias != nullptr ? _mm256_loadu_pd(r.bias + i + 4 * g)
                               : _mm256_setzero_pd();
  }
  std::size_t f = 0;
  for (; f + 2 <= d; f += 2) {
    const __m256d u0 = _mm256_broadcast_sd(r.user + f);
    const __m256d u1 = _mm256_broadcast_sd(r.user + f + 1);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const double* p = rows + static_cast<std::size_t>(4 * g) * d + f;
      const __m256d even = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(p)), _mm_loadu_pd(p + 2 * d), 1);
      const __m256d odd = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(p + d)), _mm_loadu_pd(p + 3 * d),
          1);
      out[g] = _mm256_add_pd(out[g],
                             _mm256_mul_pd(u0, _mm256_unpacklo_pd(even, odd)));
      out[g] = _mm256_add_pd(out[g],
                             _mm256_mul_pd(u1, _mm256_unpackhi_pd(even, odd)));
    }
  }
  if (f < d) {
    const __m256d u0 = _mm256_broadcast_sd(r.user + f);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const double* p = rows + static_cast<std::size_t>(4 * g) * d + f;
      out[g] = _mm256_add_pd(
          out[g], _mm256_mul_pd(u0, _mm256_set_pd(p[3 * d], p[2 * d], p[d],
                                                  p[0])));
    }
  }
}

__attribute__((target("avx2"))) void ScoreItemsAvx2(const ScanRows& r,
                                                    ItemId begin, ItemId end,
                                                    double* out) {
  ItemId i = begin;
  for (; end - i >= 4 * kPassGroups; i += 4 * kPassGroups) {
    __m256d s[kPassGroups];
    GroupScoresAvx2<kPassGroups>(r, i, s);
#pragma GCC unroll 4
    for (int g = 0; g < kPassGroups; ++g) {
      _mm256_storeu_pd(out + (i - begin) + 4 * g, s[g]);
    }
  }
  for (; end - i >= 4; i += 4) {
    __m256d s;
    GroupScoresAvx2<1>(r, i, &s);
    _mm256_storeu_pd(out + (i - begin), s);
  }
  ScanScalar(r, i, end, [&](ItemId j, double s) { out[j - begin] = s; });
}

// Offers the four items i..i+3 to the filter in order, unless every lane is
// strictly below the bar: then no push could happen and the bar stays put,
// so skipping the group equals offering each item. NaN lanes compare
// unordered and are offered.
__attribute__((target("avx2"), always_inline)) inline void OfferGroupAvx2(
    __m256d s, ItemId i, TopKFilter* filter) {
  const __m256d below =
      _mm256_cmp_pd(s, _mm256_set1_pd(filter->bar()), _CMP_LT_OQ);
  if (_mm256_movemask_pd(below) == 0xf) return;
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  for (int j = 0; j < 4; ++j) filter->Offer(i + j, lanes[j]);
}

__attribute__((target("avx2"))) void ScoreTopKAvx2(const ScanRows& r,
                                                   ItemId begin, ItemId end,
                                                   TopKFilter* filter) {
  ItemId i = begin;
  for (; end - i >= 4 * kPassGroups; i += 4 * kPassGroups) {
    __m256d s[kPassGroups];
    GroupScoresAvx2<kPassGroups>(r, i, s);
#pragma GCC unroll 4
    for (int g = 0; g < kPassGroups; ++g) {
      OfferGroupAvx2(s[g], i + 4 * g, filter);
    }
  }
  for (; end - i >= 4; i += 4) {
    __m256d s;
    GroupScoresAvx2<1>(r, i, &s);
    OfferGroupAvx2(s, i, filter);
  }
  ScanScalar(r, i, end, [&](ItemId j, double s) { filter->Offer(j, s); });
}
#endif  // CLAPF_EXACT_SCAN_X86

}  // namespace

void ExactScoreItems(const FactorModel& model, UserId u, ItemId begin,
                     ItemId end, double* out) {
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= model.num_items());
  const ScanRows r = RowsOf(model, u);
#ifdef CLAPF_EXACT_SCAN_X86
  if (ActiveScoreKernel() == ScoreKernel::kAvx2) {
    ScoreItemsAvx2(r, begin, end, out);
    return;
  }
#endif
  ScanScalar(r, begin, end, [&](ItemId i, double s) { out[i - begin] = s; });
}

void ExactScoreTopK(const FactorModel& model, UserId u, ItemId begin,
                    ItemId end, const std::vector<bool>* excluded,
                    TopKAccumulator* acc, double reject_below) {
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= model.num_items());
  const ScanRows r = RowsOf(model, u);
  TopKFilter filter(excluded, acc, reject_below);
#ifdef CLAPF_EXACT_SCAN_X86
  if (ActiveScoreKernel() == ScoreKernel::kAvx2) {
    ScoreTopKAvx2(r, begin, end, &filter);
    return;
  }
#endif
  ScanScalar(r, begin, end, [&](ItemId i, double s) { filter.Offer(i, s); });
}

}  // namespace clapf

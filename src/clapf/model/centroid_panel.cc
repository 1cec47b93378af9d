#include "clapf/model/centroid_panel.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "clapf/model/score_kernel.h"
#include "clapf/util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define CLAPF_CENTROID_PANEL_X86 1
#endif

namespace clapf {
namespace {

// Centroids per panel group, and rows per kernel pass: each pass streams
// the panel once for four rows.
constexpr int kCentroidPanelLanes = 8;
constexpr int kPassRows = 4;

// Two and four double lanes as GCC/Clang vectors (element-wise IEEE
// arithmetic in one SSE2/NEON or AVX register), with the same-width int64
// vectors that carry the lanes' centroid ids.
using Double2 = double __attribute__((vector_size(2 * sizeof(double))));
using Id2 = int64_t __attribute__((vector_size(2 * sizeof(int64_t))));
using Double4 = double __attribute__((vector_size(4 * sizeof(double))));
using Id4 = int64_t __attribute__((vector_size(4 * sizeof(int64_t))));

using PassFn = void (*)(const double* panel, const double* half,
                        int32_t num_groups, int32_t dims, const double* rows,
                        int64_t num_passes, int32_t* out);

// The nearest centroid of rows [0, num_passes·kPassRows): per pass, every
// panel group is scored against kPassRows rows at once, one centroid per
// vector lane, and each lane keeps its own strict-< (value, id) best; the
// lanes reduce at the end of the pass (see CentroidPanel for why this
// equals the scalar loop bit for bit). V holds doubles, I the ids.
template <typename V, typename I>
[[gnu::always_inline]] inline void AssignPasses(
    const double* panel, const double* half, int32_t num_groups,
    int32_t dims, const double* rows, int64_t num_passes, int32_t* out) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  constexpr int kVecs = kCentroidPanelLanes / kLanes;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  I lane_ids[kVecs];
  for (int j = 0; j < kVecs; ++j) {
    for (int l = 0; l < kLanes; ++l) lane_ids[j][l] = j * kLanes + l;
  }
  const std::size_t group_doubles =
      static_cast<std::size_t>(dims) * kCentroidPanelLanes;
  for (int64_t p = 0; p < num_passes; ++p) {
    const double* x = rows + static_cast<std::size_t>(p) * kPassRows * dims;
    V best[kPassRows][kVecs];
    I best_id[kPassRows][kVecs];
    for (int r = 0; r < kPassRows; ++r) {
      for (int j = 0; j < kVecs; ++j) {
        best[r][j] = V{} + kInf;
        best_id[r][j] = I{};
      }
    }
    for (int32_t g = 0; g < num_groups; ++g) {
      const double* strip = panel + static_cast<std::size_t>(g) * group_doubles;
      V dot[kPassRows][kVecs] = {};
      for (int32_t f = 0; f < dims; ++f, strip += kCentroidPanelLanes) {
        V c[kVecs];
#pragma GCC unroll 4
        for (int j = 0; j < kVecs; ++j) {
          std::memcpy(&c[j], strip + j * kLanes, sizeof(V));
        }
#pragma GCC unroll 4
        for (int r = 0; r < kPassRows; ++r) {
          const double xf = x[r * dims + f];
#pragma GCC unroll 4
          for (int j = 0; j < kVecs; ++j) dot[r][j] += xf * c[j];
        }
      }
      const int64_t first_id = static_cast<int64_t>(g) * kCentroidPanelLanes;
#pragma GCC unroll 4
      for (int j = 0; j < kVecs; ++j) {
        V h;
        std::memcpy(&h, half + first_id + j * kLanes, sizeof(V));
        const I ids = lane_ids[j] + first_id;
#pragma GCC unroll 4
        for (int r = 0; r < kPassRows; ++r) {
          const V v = h - dot[r][j];
          const auto lt = v < best[r][j];
          best[r][j] = lt ? v : best[r][j];
          best_id[r][j] = lt ? ids : best_id[r][j];
        }
      }
    }
    // Lanes still at +inf never took a value and hold id 0, so a row with
    // no value below +inf lands in cluster 0, as in the scalar loop.
    for (int r = 0; r < kPassRows; ++r) {
      double best_v = kInf;
      int64_t best_c = 0;
      for (int j = 0; j < kVecs; ++j) {
        for (int l = 0; l < kLanes; ++l) {
          const double v = best[r][j][l];
          const int64_t c = best_id[r][j][l];
          if (v < best_v || (v == best_v && c < best_c)) {
            best_v = v;
            best_c = c;
          }
        }
      }
      out[p * kPassRows + r] = static_cast<int32_t>(best_c);
    }
  }
}

void AssignPassesPortable(const double* panel, const double* half,
                          int32_t num_groups, int32_t dims,
                          const double* rows, int64_t num_passes,
                          int32_t* out) {
  AssignPasses<Double2, Id2>(panel, half, num_groups, dims, rows, num_passes,
                             out);
}

#ifdef CLAPF_CENTROID_PANEL_X86
// AVX2 without FMA: a fused multiply-add would round x_f·c_f + dot once
// instead of twice and break the bit-identity with the scalar loop.
__attribute__((target("avx2"))) void AssignPassesAvx2(
    const double* panel, const double* half, int32_t num_groups,
    int32_t dims, const double* rows, int64_t num_passes, int32_t* out) {
  AssignPasses<Double4, Id4>(panel, half, num_groups, dims, rows, num_passes,
                             out);
}
#endif  // CLAPF_CENTROID_PANEL_X86

PassFn ActivePassFn() {
#ifdef CLAPF_CENTROID_PANEL_X86
  if (ActiveScoreKernel() == ScoreKernel::kAvx2) return AssignPassesAvx2;
#endif
  return AssignPassesPortable;
}

}  // namespace

CentroidPanel::CentroidPanel(const float* centroids, int32_t num_centroids,
                             int32_t dims)
    : dims_(dims),
      num_groups_((num_centroids + kCentroidPanelLanes - 1) /
                  kCentroidPanelLanes) {
  CLAPF_CHECK(num_centroids >= 1 && dims >= 1);
  panel_.assign(static_cast<std::size_t>(num_groups_) * dims *
                    kCentroidPanelLanes,
                0.0);
  half_.assign(static_cast<std::size_t>(num_groups_) * kCentroidPanelLanes,
               std::numeric_limits<double>::infinity());
  for (int32_t c = 0; c < num_centroids; ++c) {
    const float* cen = centroids + static_cast<std::size_t>(c) * dims;
    double* lane = panel_.data() +
                   static_cast<std::size_t>(c / kCentroidPanelLanes) * dims *
                       kCentroidPanelLanes +
                   c % kCentroidPanelLanes;
    double n2 = 0.0;
    for (int32_t f = 0; f < dims; ++f) {
      const double v = static_cast<double>(cen[f]);
      lane[static_cast<std::size_t>(f) * kCentroidPanelLanes] = v;
      n2 += v * v;
    }
    half_[static_cast<std::size_t>(c)] = 0.5 * n2;
  }
}

void CentroidPanel::Assign(const double* rows, int64_t num_rows,
                           int32_t* out) const {
  const PassFn pass = ActivePassFn();
  const int64_t full = num_rows / kPassRows;
  pass(panel_.data(), half_.data(), num_groups_, dims_, rows, full, out);
  const int64_t done = full * kPassRows;
  if (done == num_rows) return;
  // The last rows take one more pass, padded with zero rows whose ids are
  // dropped.
  std::vector<double> tail(static_cast<std::size_t>(kPassRows) * dims_, 0.0);
  std::copy(rows + done * dims_, rows + num_rows * dims_, tail.begin());
  int32_t tail_out[kPassRows];
  pass(panel_.data(), half_.data(), num_groups_, dims_, tail.data(), 1,
       tail_out);
  std::copy(tail_out, tail_out + (num_rows - done), out + done);
}

}  // namespace clapf

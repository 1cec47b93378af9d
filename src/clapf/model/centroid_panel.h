#ifndef CLAPF_MODEL_CENTROID_PANEL_H_
#define CLAPF_MODEL_CENTROID_PANEL_H_

#include <cstdint>
#include <vector>

namespace clapf {

/// IVF k-means centroids laid out for the blocked nearest-centroid kernel
/// that every IvfIndex assignment runs through (Lloyd iterations, the full
/// assignment pass and RebuildDirty's dirty items). The float centroids are
/// widened once to doubles and stored in groups of 8 (one register block of
/// the kernel: two AVX2 vectors, four SSE2/NEON vectors), factor-major
/// inside a group:
///
///   group g: [ f0 of centroids 8g..8g+7 ][ f1 of the same 8 ] ... [ f_{dims-1} ]
///
/// beside each centroid's half-norm ‖c‖²/2 (summed in double in factor
/// order). Pad lanes of the last group are zero with a +inf half-norm, so
/// they can never win.
///
/// Assign returns, for each row x, argmin_c (‖c‖²/2 − x·c), which is
/// argmin_c ‖x − c‖². It is bit-identical to the scalar loop that scores
/// centroid 0, 1, ... in turn, with `dot = 0.0; dot += x[f] * c[f]` in
/// factor order and a strict `<` against the best so far:
///   - each vector lane is one centroid, and it adds x_f·c_f in that same
///     order, with every product rounded before its add (this file is
///     compiled with -ffp-contract=off and the AVX2 variant does not enable
///     FMA, so no multiply-add is ever fused);
///   - each lane keeps its own (value, id) best under strict `<` over
///     ascending groups, and the lanes reduce by value with ties to the
///     smaller id, so the smallest id of the minimum wins as in the scalar
///     loop;
///   - a NaN value never compares below anything, so a row whose every
///     value is NaN (a NaN row, or ±inf meeting ∓inf or zero) lands in
///     cluster 0.
///
/// Immutable after construction; Assign is safe to call from many threads.
class CentroidPanel {
 public:
  /// Lays out `num_centroids` (>= 1) centroids of `dims` floats each,
  /// row-major in `centroids`.
  CentroidPanel(const float* centroids, int32_t num_centroids, int32_t dims);

  int32_t dims() const { return dims_; }

  /// out[r] = the nearest centroid of row r of `rows` (num_rows × dims
  /// doubles, row-major), four rows per kernel pass. Runs the AVX2 kernel
  /// when ActiveScoreKernel() is kAvx2, the portable one otherwise; both
  /// return the same ids.
  void Assign(const double* rows, int64_t num_rows, int32_t* out) const;

 private:
  int32_t dims_ = 0;
  int32_t num_groups_ = 0;
  std::vector<double> panel_;  // num_groups × dims × 8
  std::vector<double> half_;   // num_groups × 8
};

}  // namespace clapf

#endif  // CLAPF_MODEL_CENTROID_PANEL_H_

// Differential drills for the IVF assignment kernel: CentroidPanel::Assign
// on both score kernels against the scalar one-centroid-at-a-time argmin it
// replaced, over odd and even centroid counts and dimensions, duplicate
// centroids (the smaller id must win), NaN and ±inf rows (cluster 0), and an
// input where fusing the multiply into the add picks another centroid — so
// a kernel that fuses them (an FMA target with contraction on) fails here.
// Part of the `ann` ctest label.
#include "clapf/model/centroid_panel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "clapf/model/score_kernel.h"
#include "clapf/util/random.h"

namespace clapf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// x·c rounded to double before any add: `volatile` keeps a compiler from
// contracting the reference's multiply and add into one fused operation.
double Product(double x, double c) {
  volatile double p = x * c;
  return p;
}

// The scalar argmin the panel replaced: centroid 0, 1, ... in turn,
// dot = 0.0 then += x_f·c_f in factor order, v = ‖c‖²/2 − dot, strict `<`
// against the best so far (the smaller id keeps a tie; NaN never wins).
// With `fused` set, each step is one fused multiply-add instead — what a
// kernel compiled with FMA contraction would compute.
int32_t ScalarNearest(const double* x, const std::vector<float>& centroids,
                      int32_t k, int32_t ad, bool fused = false) {
  int32_t best = 0;
  double best_v = kInf;
  for (int32_t c = 0; c < k; ++c) {
    const float* cen = centroids.data() + static_cast<size_t>(c) * ad;
    double n2 = 0.0;
    double dot = 0.0;
    for (int32_t f = 0; f < ad; ++f) {
      const double cf = static_cast<double>(cen[f]);
      n2 += Product(cf, cf);
      dot = fused ? std::fma(x[f], cf, dot) : dot + Product(x[f], cf);
    }
    const double v = 0.5 * n2 - dot;
    if (v < best_v) {
      best_v = v;
      best = c;
    }
  }
  return best;
}

std::vector<int32_t> ScalarAssign(const std::vector<double>& rows,
                                  const std::vector<float>& centroids,
                                  int32_t k, int32_t ad) {
  std::vector<int32_t> out(rows.size() / static_cast<size_t>(ad));
  for (size_t r = 0; r < out.size(); ++r) {
    out[r] = ScalarNearest(rows.data() + r * ad, centroids, k, ad);
  }
  return out;
}

class CentroidPanelTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearScoreKernelOverride(); }

  // The supported kernels, each forced in turn by the caller's loop.
  static std::vector<ScoreKernel> Kernels() {
    std::vector<ScoreKernel> kernels;
    for (ScoreKernel k : {ScoreKernel::kPortable, ScoreKernel::kAvx2}) {
      if (ScoreKernelSupported(k)) kernels.push_back(k);
    }
    return kernels;
  }

  // Panel ids for `rows` on every supported kernel, each checked against
  // the scalar reference row by row.
  static void ExpectMatchesScalar(const std::vector<double>& rows,
                                  const std::vector<float>& centroids,
                                  int32_t k, int32_t ad) {
    const std::vector<int32_t> want = ScalarAssign(rows, centroids, k, ad);
    const CentroidPanel panel(centroids.data(), k, ad);
    for (ScoreKernel kernel : Kernels()) {
      ForceScoreKernel(kernel);
      std::vector<int32_t> got(want.size(), -1);
      panel.Assign(rows.data(), static_cast<int64_t>(got.size()), got.data());
      for (size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(got[r], want[r])
            << "kernel " << ScoreKernelName(kernel) << " k=" << k
            << " ad=" << ad << " row " << r;
      }
    }
  }
};

TEST_F(CentroidPanelTest, MatchesScalarArgminAcrossCountsAndDims) {
  Rng rng(2027);
  for (int32_t k : {1, 7, 8, 9, 1000}) {
    for (int32_t ad : {2, 3, 34}) {
      std::vector<float> centroids(static_cast<size_t>(k) * ad);
      for (float& c : centroids) c = static_cast<float>(rng.NextGaussian());
      // 4·9 + 3 rows: full passes and a padded tail pass.
      std::vector<double> rows(static_cast<size_t>(39) * ad);
      for (double& x : rows) x = rng.NextGaussian();
      // Some rows sit on a centroid, where the argmin is sharpest.
      for (int32_t r = 0; r < 39; r += 5) {
        const int32_t c = r % k;
        for (int32_t f = 0; f < ad; ++f) {
          rows[static_cast<size_t>(r) * ad + f] =
              centroids[static_cast<size_t>(c) * ad + f];
        }
      }
      ExpectMatchesScalar(rows, centroids, k, ad);
    }
  }
}

TEST_F(CentroidPanelTest, DuplicateCentroidsResolveToTheSmallerId) {
  // Copies of one centroid sit in the same lane of two groups (2, 10), in
  // two lanes of one group (17, 21) and in a later group's lower lane (25
  // vs 14: lane 1 against lane 6), so each tie the lane reduction can meet
  // must still go to the smaller id.
  constexpr int32_t k = 32;
  constexpr int32_t ad = 3;
  Rng rng(31);
  std::vector<float> centroids(static_cast<size_t>(k) * ad);
  for (float& c : centroids) c = static_cast<float>(rng.NextGaussian());
  const auto copy = [&](int32_t from, int32_t to) {
    for (int32_t f = 0; f < ad; ++f) {
      centroids[static_cast<size_t>(to) * ad + f] =
          centroids[static_cast<size_t>(from) * ad + f];
    }
  };
  copy(2, 10);
  copy(17, 21);
  copy(14, 25);
  std::vector<double> rows;
  for (int32_t c : {10, 2, 21, 17, 25, 14}) {
    for (int32_t f = 0; f < ad; ++f) {
      rows.push_back(centroids[static_cast<size_t>(c) * ad + f]);
    }
  }
  ExpectMatchesScalar(rows, centroids, k, ad);
  const CentroidPanel panel(centroids.data(), k, ad);
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    std::vector<int32_t> got(6);
    panel.Assign(rows.data(), 6, got.data());
    EXPECT_EQ(got, (std::vector<int32_t>{2, 2, 17, 17, 14, 14}))
        << ScoreKernelName(kernel);
  }

  // Every centroid equal: every row ties everywhere and lands on 0.
  std::vector<float> same(static_cast<size_t>(k) * ad, 0.5f);
  const CentroidPanel flat(same.data(), k, ad);
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    std::vector<int32_t> got(6, -1);
    flat.Assign(rows.data(), 6, got.data());
    EXPECT_EQ(got, std::vector<int32_t>(6, 0)) << ScoreKernelName(kernel);
  }
}

TEST_F(CentroidPanelTest, NanAndInfiniteRowsLandInClusterZero) {
  constexpr int32_t k = 9;
  constexpr int32_t ad = 3;
  Rng rng(37);
  // Strictly positive coordinates: +inf meets -inf in every dot product.
  std::vector<float> centroids(static_cast<size_t>(k) * ad);
  for (float& c : centroids) {
    c = static_cast<float>(0.5 + rng.NextDouble());
  }
  const std::vector<double> rows = {
      kNaN,  kNaN,  kNaN,   // all NaN
      0.25,  kNaN,  -1.0,   // one NaN coordinate
      kInf,  -kInf, 0.5,    // +inf + -inf: NaN for every centroid
      -kInf, kInf,  kInf,   // the same, signs swapped
      kInf,  kInf,  kInf,   // dot = +inf everywhere: every value -inf, a tie
      -kInf, -kInf, -kInf,  // dot = -inf everywhere: every value +inf
  };
  ExpectMatchesScalar(rows, centroids, k, ad);
  const CentroidPanel panel(centroids.data(), k, ad);
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    std::vector<int32_t> got(6, -1);
    panel.Assign(rows.data(), 6, got.data());
    EXPECT_EQ(got, std::vector<int32_t>(6, 0)) << ScoreKernelName(kernel);
  }
}

TEST_F(CentroidPanelTest, FusedMultiplyAddWouldPickAnotherCentroid) {
  // Centroids (a, b) and (b, a) share one half-norm, and against a row
  // (t, t) the separately rounded dot products are equal — a tie that
  // centroid 0 keeps. Fused, the second product is added unrounded, and
  // the two dots can differ by an ulp. Search for such an input, then
  // require the panel to side with the separate arithmetic.
  Rng rng(41);
  std::vector<float> centroids;
  std::vector<double> row;
  bool found = false;
  for (int trial = 0; trial < 100000 && !found; ++trial) {
    const float a = static_cast<float>(rng.NextGaussian());
    const float b = static_cast<float>(rng.NextGaussian());
    const double t = rng.NextGaussian();
    centroids = {a, b, b, a};
    row = {t, t};
    found = ScalarNearest(row.data(), centroids, 2, 2, /*fused=*/true) !=
            ScalarNearest(row.data(), centroids, 2, 2);
  }
  ASSERT_TRUE(found) << "no input separates fused from separate rounding";
  const int32_t separate = ScalarNearest(row.data(), centroids, 2, 2);
  const CentroidPanel panel(centroids.data(), 2, 2);
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    int32_t got = -1;
    panel.Assign(row.data(), 1, &got);
    EXPECT_EQ(got, separate) << ScoreKernelName(kernel);
  }
}

}  // namespace
}  // namespace clapf

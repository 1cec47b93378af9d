// Differential test of the exact double scan (model/exact_scan.h) against
// the code it replaced, kept here as the reference: FactorModel::
// ScoreItemRange's scalar loop and SelectTopK's push of every item. Random
// models with d = 1..8 and a spread up to 67, the bias on and off, 0-9
// items and counts off multiples of 4, 8 and 1024; tie-heavy models
// (duplicated rows and biases), ±0.0 factors, ±inf biases and NaN; no,
// some and all items excluded; k in {1, 10, n, n + 5}; a cross-shard bar at
// -inf, mid-list and above every score; ranges starting and ending off chunk
// boundaries; both kernels. ScoreItemRange, SelectTopK, ExactScoreTopK and
// Retrieve's exact path must return the reference's ids and score bits (a
// NaN only as NaN). The inputs include scores where std::fma and
// mul-then-add round apart, so a kernel that fused them would fail. This
// file is compiled with -ffp-contract=off so the reference is never fused
// either. Part of the `kernel` ctest label.
#include "clapf/model/exact_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/util/random.h"
#include "clapf/util/top_k.h"

namespace clapf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// FactorModel::ScoreItemRange as it was: the scalar loop, bias hoisted.
void ReferenceScoreItemRange(const FactorModel& model, UserId u, ItemId begin,
                             ItemId end, std::vector<double>* scores) {
  const int32_t d = model.num_factors();
  const double* uf = &model.user_factor_data()[static_cast<size_t>(u) * d];
  const std::vector<double>& items = model.item_factor_data();
  const std::vector<double>& bias = model.item_bias_data();
  if (model.use_item_bias()) {
    for (int32_t i = begin; i < end; ++i) {
      const double* vf = &items[static_cast<size_t>(i) * d];
      double s = bias[static_cast<size_t>(i)];
      for (int32_t f = 0; f < d; ++f) s += uf[f] * vf[f];
      (*scores)[static_cast<size_t>(i)] = s;
    }
  } else {
    for (int32_t i = begin; i < end; ++i) {
      const double* vf = &items[static_cast<size_t>(i) * d];
      double s = 0.0;
      for (int32_t f = 0; f < d; ++f) s += uf[f] * vf[f];
      (*scores)[static_cast<size_t>(i)] = s;
    }
  }
}

// SelectTopK as it was: every item not excluded goes through Push.
std::vector<ScoredItem> ReferenceSelectTopK(const std::vector<double>& scores,
                                            const std::vector<bool>& exclude,
                                            size_t k) {
  TopKAccumulator acc(k);
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!exclude.empty() && exclude[i]) continue;
    acc.Push(static_cast<int32_t>(i), scores[i]);
  }
  return acc.Take();
}

// The same scalar chain with every product fused into its add.
double FusedScore(const FactorModel& model, UserId u, ItemId i) {
  auto uf = model.UserFactors(u);
  auto vf = model.ItemFactors(i);
  double s = model.use_item_bias() ? model.ItemBias(i) : 0.0;
  for (size_t f = 0; f < uf.size(); ++f) s = std::fma(uf[f], vf[f], s);
  return s;
}

bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult SameTop(const std::vector<ScoredItem>& want,
                                   const std::vector<ScoredItem>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  for (size_t j = 0; j < want.size(); ++j) {
    if (want[j].item != got[j].item || !SameBits(want[j].score, got[j].score)) {
      return ::testing::AssertionFailure()
             << "rank " << j << ": item " << got[j].item << " score "
             << got[j].score << ", want item " << want[j].item << " score "
             << want[j].score;
    }
  }
  return ::testing::AssertionSuccess();
}

// The value patterns a model's parameters are drawn with.
enum class Values { kRandom, kTies, kSignedZeros, kInfBiases, kNaN };

const char* ValuesName(Values v) {
  switch (v) {
    case Values::kRandom: return "random";
    case Values::kTies: return "ties";
    case Values::kSignedZeros: return "signed-zeros";
    case Values::kInfBiases: return "inf-biases";
    case Values::kNaN: return "nan";
  }
  return "?";
}

constexpr Values kAllValues[] = {Values::kRandom, Values::kTies,
                                 Values::kSignedZeros, Values::kInfBiases,
                                 Values::kNaN};

constexpr int32_t kUsers = 3;

FactorModel MakeModel(int32_t n, int32_t d, bool bias, Values values,
                      uint64_t seed) {
  FactorModel model(kUsers, n, d, bias);
  Rng rng(seed);
  model.InitGaussian(rng, 0.7);
  if (bias) {
    for (ItemId i = 0; i < n; ++i) model.ItemBias(i) = rng.NextDouble() - 0.5;
  }
  switch (values) {
    case Values::kRandom:
      break;
    case Values::kTies:
      // Three distinct rows (and biases), repeated across the catalog.
      for (ItemId i = 3; i < n; ++i) {
        const ItemId from = static_cast<ItemId>(rng.Next() % 3);
        auto src = model.ItemFactors(from);
        std::vector<double> row(src.begin(), src.end());
        std::copy(row.begin(), row.end(), model.ItemFactors(i).begin());
        model.ItemBias(i) = model.ItemBias(from);
      }
      break;
    case Values::kSignedZeros:
      for (double& x : model.mutable_item_factor_data()) {
        if (rng.NextDouble() < 0.7) x = rng.NextDouble() < 0.5 ? 0.0 : -0.0;
      }
      for (double& x : model.mutable_user_factor_data()) {
        if (rng.NextDouble() < 0.3) x = rng.NextDouble() < 0.5 ? 0.0 : -0.0;
      }
      for (double& x : model.mutable_item_bias_data()) {
        if (rng.NextDouble() < 0.5) x = -0.0;
      }
      break;
    case Values::kInfBiases:
      if (!bias) break;
      for (double& x : model.mutable_item_bias_data()) {
        const double p = rng.NextDouble();
        if (p < 0.1) x = kInf;
        else if (p < 0.2) x = -kInf;
      }
      break;
    case Values::kNaN:
      for (ItemId i = 0; i < n; ++i) {
        const double p = rng.NextDouble();
        if (p < 0.05) {
          model.ItemFactors(i)[rng.Next() % static_cast<uint64_t>(d)] =
              kNaN;
        } else if (p < 0.1 && bias) {
          model.ItemBias(i) = kNaN;
        }
      }
      model.UserFactors(kUsers - 1)[0] = kNaN;  // every score of this user
      break;
  }
  return model;
}

// The (d, n) shapes: every d in 1..8 over tiny catalogs, then a spread of
// d up to 67 over catalogs that are not multiples of 4, 8 or 1024.
struct Shape {
  int32_t d;
  int32_t n;
};

std::vector<Shape> Shapes() {
  std::vector<Shape> shapes;
  for (int32_t d = 1; d <= 8; ++d) {
    for (int32_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 37}) {
      shapes.push_back({d, n});
    }
  }
  for (int32_t d : {11, 20, 33, 67}) {
    for (int32_t n : {9, 61, 1029}) shapes.push_back({d, n});
  }
  shapes.push_back({16, 2051});
  shapes.push_back({5, 3001});
  return shapes;
}

std::vector<ScoreKernel> Kernels() {
  std::vector<ScoreKernel> kernels = {ScoreKernel::kPortable};
  if (ScoreKernelSupported(ScoreKernel::kAvx2)) {
    kernels.push_back(ScoreKernel::kAvx2);
  }
  return kernels;
}

std::vector<size_t> Ks(int32_t n) {
  std::vector<size_t> ks = {1, 10, static_cast<size_t>(n),
                            static_cast<size_t>(n) + 5};
  ks.erase(std::remove(ks.begin(), ks.end(), size_t{0}), ks.end());
  return ks;
}

// No exclusions (empty), about a fifth of the items, every item.
std::vector<std::vector<bool>> Exclusions(int32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> some(static_cast<size_t>(n));
  for (size_t i = 0; i < some.size(); ++i) some[i] = rng.NextDouble() < 0.2;
  return {{}, some, std::vector<bool>(static_cast<size_t>(n), true)};
}

// The cross-shard bars one user's scores are tried with: none, the median
// score and one above every score (+inf when a score is +inf). The bar
// contract assumes ordered scores, so NaN scores are tried without one.
std::vector<double> Bars(const std::vector<double>& scores, bool ordered) {
  std::vector<double> bars = {-kInf};
  if (scores.empty() || !ordered) return bars;
  std::vector<double> sorted = scores;
  std::sort(sorted.begin(), sorted.end());
  bars.push_back(sorted[sorted.size() / 2]);
  bars.push_back(std::nextafter(sorted.back(), kInf));
  return bars;
}

// The reference answer to a scan of items [begin, end) under `bar`: the
// reference selection over the items not excluded and not below the bar.
std::vector<ScoredItem> ReferenceTop(const std::vector<double>& scores,
                                     const std::vector<bool>& exclude,
                                     ItemId begin, ItemId end, double bar,
                                     size_t k) {
  std::vector<bool> skip(scores.size(), false);
  for (size_t i = 0; i < scores.size(); ++i) {
    const bool in_range = static_cast<ItemId>(i) >= begin &&
                          static_cast<ItemId>(i) < end;
    skip[i] = !in_range || (!exclude.empty() && exclude[i]) ||
              scores[i] < bar;
  }
  return ReferenceSelectTopK(scores, skip, k);
}

class ExactScanDiffTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearScoreKernelOverride(); }
};

TEST_F(ExactScanDiffTest, ScoreItemRangeMatchesTheScalarLoop) {
  uint64_t seed = 1;
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    for (const Shape& shape : Shapes()) {
      for (bool bias : {true, false}) {
        for (Values values : kAllValues) {
          const FactorModel model =
              MakeModel(shape.n, shape.d, bias, values, seed++);
          SCOPED_TRACE(std::string(ScoreKernelName(kernel)) + " d=" +
                       std::to_string(shape.d) + " n=" +
                       std::to_string(shape.n) + " bias=" +
                       std::to_string(bias) + " " + ValuesName(values));
          const ItemId n = shape.n;
          // The whole catalog, then ranges off the 4-item groups and the
          // 1024-item chunks at both ends.
          const std::vector<std::pair<ItemId, ItemId>> ranges = {
              {0, n},
              {std::min<ItemId>(1, n),
               std::max<ItemId>(n - 2, std::min<ItemId>(1, n))},
              {std::min<ItemId>(3, n), n},
              {std::min<ItemId>(1021, n), std::min<ItemId>(1030, n)}};
          for (UserId u = 0; u < kUsers; ++u) {
            std::vector<double> want(static_cast<size_t>(n));
            ReferenceScoreItemRange(model, u, 0, n, &want);
            for (const auto& [begin, end] : ranges) {
              std::vector<double> got(static_cast<size_t>(n), -123.0);
              model.ScoreItemRange(u, begin, end, &got);
              for (ItemId i = 0; i < n; ++i) {
                const double expect =
                    i >= begin && i < end ? want[static_cast<size_t>(i)]
                                          : -123.0;
                ASSERT_TRUE(SameBits(expect, got[static_cast<size_t>(i)]))
                    << "user " << u << " item " << i << " of [" << begin
                    << ", " << end << "): " << got[static_cast<size_t>(i)]
                    << ", want " << expect;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(ExactScanDiffTest, SelectTopKMatchesPushingEveryItem) {
  uint64_t seed = 1000;
  for (const Shape& shape : Shapes()) {
    for (Values values : kAllValues) {
      const FactorModel model = MakeModel(shape.n, shape.d, true, values,
                                          seed++);
      for (UserId u = 0; u < kUsers; ++u) {
        std::vector<double> scores(static_cast<size_t>(shape.n));
        ReferenceScoreItemRange(model, u, 0, shape.n, &scores);
        for (const std::vector<bool>& exclude : Exclusions(shape.n, seed)) {
          for (size_t k : Ks(shape.n)) {
            ASSERT_TRUE(SameTop(ReferenceSelectTopK(scores, exclude, k),
                                SelectTopK(scores, exclude, k)))
                << "d=" << shape.d << " n=" << shape.n << " "
                << ValuesName(values) << " user " << u << " k=" << k
                << " excluded " << exclude.size();
          }
        }
      }
    }
  }
}

TEST_F(ExactScanDiffTest, ExactTopKMatchesScoreThenSelect) {
  uint64_t seed = 2000;
  for (ScoreKernel kernel : Kernels()) {
    ForceScoreKernel(kernel);
    for (const Shape& shape : Shapes()) {
      for (bool bias : {true, false}) {
        for (Values values : kAllValues) {
          const FactorModel model =
              MakeModel(shape.n, shape.d, bias, values, seed++);
          const ItemId n = shape.n;
          SCOPED_TRACE(std::string(ScoreKernelName(kernel)) + " d=" +
                       std::to_string(shape.d) + " n=" + std::to_string(n) +
                       " bias=" + std::to_string(bias) + " " +
                       ValuesName(values));
          const RetrievalLayers layers{&model, nullptr, nullptr};
          QueryOptions options;
          options.use_packed = false;
          for (UserId u = 0; u < kUsers; ++u) {
            std::vector<double> scores(static_cast<size_t>(n));
            ReferenceScoreItemRange(model, u, 0, n, &scores);
            const bool ordered =
                std::none_of(scores.begin(), scores.end(),
                             [](double s) { return std::isnan(s); });
            for (const std::vector<bool>& exclude : Exclusions(n, seed)) {
              const std::vector<bool>* excluded =
                  exclude.empty() ? nullptr : &exclude;
              for (size_t k : Ks(n)) {
                for (double bar : Bars(scores, ordered)) {
                  SCOPED_TRACE("user " + std::to_string(u) + " k=" +
                               std::to_string(k) + " excluded " +
                               std::to_string(exclude.size()) + " bar " +
                               std::to_string(bar));
                  const auto want = ReferenceTop(scores, exclude, 0, n, bar, k);
                  // Retrieve, as a shard asks: with a broadcast holding the
                  // bar, which the scan raises from its own full heap. The
                  // bar contract assumes ordered scores, so NaN scores are
                  // scanned with no broadcast.
                  ThresholdBroadcast broadcast;
                  broadcast.Raise(bar);
                  RetrievalPath path = RetrievalPath::kNone;
                  auto got = Retrieve(layers, u, k, excluded, k, options,
                                      std::nullopt,
                                      ordered ? &broadcast : nullptr,
                                      nullptr, &path);
                  ASSERT_TRUE(got.ok()) << got.status().ToString();
                  EXPECT_EQ(path, RetrievalPath::kExact);
                  ASSERT_TRUE(SameTop(want, *got));
                  // The kernel alone, over a range off the group and chunk
                  // boundaries.
                  const ItemId begin = std::min<ItemId>(3, n);
                  const ItemId end = std::max(begin, n - 1);
                  TopKAccumulator acc(k);
                  ExactScoreTopK(model, u, begin, end, excluded, &acc, bar);
                  ASSERT_TRUE(SameTop(
                      ReferenceTop(scores, exclude, begin, end, bar, k),
                      acc.Take()));
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(ExactScanDiffTest, InputsSeparateFmaFromMulThenAdd) {
  // Random models of the spread above: count the scores where fusing the
  // chain changes the bits, and require both kernels to return the
  // unfused bits there.
  int64_t apart = 0;
  uint64_t seed = 3000;
  for (int32_t d : {3, 8, 20, 67}) {
    const FactorModel model = MakeModel(1029, d, true, Values::kRandom,
                                        seed++);
    for (UserId u = 0; u < kUsers; ++u) {
      std::vector<double> want(1029);
      ReferenceScoreItemRange(model, u, 0, 1029, &want);
      for (ScoreKernel kernel : Kernels()) {
        ForceScoreKernel(kernel);
        std::vector<double> got(1029);
        model.ScoreItemRange(u, 0, 1029, &got);
        for (ItemId i = 0; i < 1029; ++i) {
          const double fused = FusedScore(model, u, i);
          if (SameBits(fused, want[static_cast<size_t>(i)])) continue;
          ++apart;
          ASSERT_TRUE(SameBits(want[static_cast<size_t>(i)],
                               got[static_cast<size_t>(i)]))
              << ScoreKernelName(kernel) << " d=" << d << " user " << u
              << " item " << i << ": " << got[static_cast<size_t>(i)]
              << ", mul-then-add " << want[static_cast<size_t>(i)]
              << ", fused " << fused;
        }
      }
    }
  }
  EXPECT_GT(apart, 0) << "no input tells a fused chain from mul-then-add";
}

}  // namespace
}  // namespace clapf

#ifndef CLAPF_MODEL_EXACT_SCAN_H_
#define CLAPF_MODEL_EXACT_SCAN_H_

#include <limits>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/util/top_k.h"

namespace clapf {

/// The exact double scan of the MF predictor f_ui = b_i + U_u · V_i over a
/// range of items — the reference every golden, full-ranking evaluation and
/// the served exact path rest on. Each item's score has the bits of the
/// scalar loop
///
///   double s = use_item_bias ? b_i : 0.0;
///   for (f = 0; f < d; ++f) s += u_f * v_f;
///
/// (a rounded multiply, then a rounded add, in factor order) under both
/// kernels, picked by ActiveScoreKernel():
///   - kPortable runs that loop, one item at a time;
///   - kAvx2 scores four items per 256-bit vector, one item per lane, with
///     the same chain in every lane: the lanes start from the biases (or
///     +0.0), and each factor pair is loaded as two 128-bit halves per item
///     row and transposed with unpacks, then multiplied and added, with no
///     FMA (the variant enables `avx2` only and exact_scan.cc is compiled
///     with -ffp-contract=off). An odd last factor is gathered lane by lane
///     and a tail of fewer than four items takes the scalar loop, so no
///     load reaches past the item rows or biases of the range.

/// Writes f_ui for the items [begin, end) of `model` to out[0, end - begin).
void ExactScoreItems(const FactorModel& model, UserId u, ItemId begin,
                     ItemId end, double* out);

/// Fused exact score + top-k over items [begin, end): feeds `acc` the items
/// not flagged in `excluded` (indexed by item id; nullptr excludes nothing),
/// in ascending id order, without materializing the scores. A score
/// strictly below max(acc's threshold once full, `reject_below`) is
/// rejected before the exclusion lookup — a rejected score could not have
/// entered the heap, so `acc` ends as if every item had been pushed. Ties
/// and NaN scores still reach Push, so the smaller-id tie-break applies
/// exactly. `reject_below` is the cross-shard bar, as in ScoreBlocksTopK.
void ExactScoreTopK(const FactorModel& model, UserId u, ItemId begin,
                    ItemId end, const std::vector<bool>* excluded,
                    TopKAccumulator* acc,
                    double reject_below =
                        -std::numeric_limits<double>::infinity());

}  // namespace clapf

#endif  // CLAPF_MODEL_EXACT_SCAN_H_

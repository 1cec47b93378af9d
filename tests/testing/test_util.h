#ifndef CLAPF_TESTS_TESTING_TEST_UTIL_H_
#define CLAPF_TESTS_TESTING_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/retrieval.h"
#include "clapf/util/status.h"
#include "clapf/util/top_k.h"

namespace clapf {
namespace testing {

/// Builds a dataset from explicit pairs with the given dimensions.
Dataset MakeDataset(int32_t num_users, int32_t num_items,
                    const std::vector<std::pair<UserId, ItemId>>& pairs);

/// A small but learnable synthetic dataset: `num_users` × `num_items` with a
/// planted block structure (even users like low item ids, odd users like high
/// item ids, plus noise). Pairwise rankers reach AUC well above 0.5 on the
/// held-out half quickly.
Dataset MakeLearnableDataset(int32_t num_users, int32_t num_items,
                             int32_t items_per_user, uint64_t seed);

/// A FactorModel whose scores equal `scores[u][i]` exactly (1 factor:
/// U_u = 1, V_i = 0, b_i impossible per-user — so uses num_users factors).
/// Only practical for tiny test matrices.
FactorModel MakeExactModel(const std::vector<std::vector<double>>& scores);

/// A model whose item factors form `num_centers` tight Gaussian bundles
/// (center + `noise`-scaled jitter) with small random biases, and random
/// Gaussian user factors. Real catalogs cluster like this, and it is the
/// regime where IVF retrieval's measured-recall contract is meaningful —
/// isotropic random items are the adversarial worst case instead.
FactorModel MakeClusteredItemModel(int32_t num_users, int32_t num_items,
                                   int32_t num_factors, int32_t num_centers,
                                   double noise, uint64_t seed);

/// The top-k of `u` from one Retrieve call over `layers`, asked the way a
/// one-shard server asks it: `history` and options.exclude excluded (and
/// counted into the ANN widening floor), options.deadline armed, then
/// options.min_score applied. Cold-start policy is the server's and is not
/// applied.
Result<std::vector<ScoredItem>> RetrieveTopK(const RetrievalLayers& layers,
                                             const Dataset& history,
                                             UserId u, size_t k,
                                             const QueryOptions& options = {});

/// Writes `content` to a unique temp file and returns its path.
std::string WriteTempFile(const std::string& name, const std::string& content);

}  // namespace testing
}  // namespace clapf

#endif  // CLAPF_TESTS_TESTING_TEST_UTIL_H_

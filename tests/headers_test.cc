// Header hygiene: every public header must be self-contained (Google style:
// "header files should be self-contained (compile on their own)"). Each is
// included here twice to also exercise the include guards. The umbrella
// header comes last so any missing transitive include in it surfaces too.

#include "clapf/baselines/bpr.h"          // NOLINT
#include "clapf/baselines/bpr.h"          // NOLINT
#include "clapf/baselines/climf.h"        // NOLINT
#include "clapf/baselines/climf.h"        // NOLINT
#include "clapf/baselines/deep_icf.h"     // NOLINT
#include "clapf/baselines/gbpr.h"         // NOLINT
#include "clapf/baselines/item_knn.h"     // NOLINT
#include "clapf/baselines/mpr.h"          // NOLINT
#include "clapf/baselines/neu_mf.h"       // NOLINT
#include "clapf/baselines/neu_pr.h"       // NOLINT
#include "clapf/baselines/pop_rank.h"     // NOLINT
#include "clapf/baselines/random_walk.h"  // NOLINT
#include "clapf/baselines/wmf.h"          // NOLINT
#include "clapf/core/checkpoint.h"        // NOLINT
#include "clapf/core/checkpoint.h"        // NOLINT
#include "clapf/core/clapf_trainer.h"     // NOLINT
#include "clapf/core/divergence_guard.h"  // NOLINT
#include "clapf/core/divergence_guard.h"  // NOLINT
#include "clapf/core/model_selection.h"   // NOLINT
#include "clapf/core/ranker.h"            // NOLINT
#include "clapf/core/ranker.h"            // NOLINT
#include "clapf/core/sgd_executor.h"      // NOLINT
#include "clapf/core/sgd_executor.h"      // NOLINT
#include "clapf/core/smoothing.h"         // NOLINT
#include "clapf/core/trainer.h"           // NOLINT
#include "clapf/core/trainer_factory.h"   // NOLINT
#include "clapf/data/dataset.h"           // NOLINT
#include "clapf/data/dataset_builder.h"   // NOLINT
#include "clapf/data/dataset_io.h"        // NOLINT
#include "clapf/data/loader.h"            // NOLINT
#include "clapf/data/split.h"             // NOLINT
#include "clapf/data/statistics.h"        // NOLINT
#include "clapf/data/synthetic.h"         // NOLINT
#include "clapf/eval/beyond_accuracy.h"   // NOLINT
#include "clapf/eval/evaluator.h"         // NOLINT
#include "clapf/eval/protocol.h"          // NOLINT
#include "clapf/eval/ranking_metrics.h"   // NOLINT
#include "clapf/eval/sampled_evaluator.h" // NOLINT
#include "clapf/eval/significance.h"      // NOLINT
#include "clapf/eval/stratified.h"        // NOLINT
#include "clapf/model/factor_model.h"     // NOLINT
#include "clapf/model/model_io.h"         // NOLINT
#include "clapf/model/packed_snapshot.h"  // NOLINT
#include "clapf/model/retrieval.h"        // NOLINT
#include "clapf/model/retrieval.h"        // NOLINT
#include "clapf/model/score_kernel.h"     // NOLINT
#include "clapf/recommender.h"            // NOLINT
#include "clapf/sampling/abs_sampler.h"   // NOLINT
#include "clapf/sampling/aobpr_sampler.h" // NOLINT
#include "clapf/sampling/dns_sampler.h"   // NOLINT
#include "clapf/sampling/dss_sampler.h"   // NOLINT
#include "clapf/sampling/geometric.h"     // NOLINT
#include "clapf/sampling/rank_list.h"     // NOLINT
#include "clapf/sampling/sampler.h"       // NOLINT
#include "clapf/sampling/uniform_sampler.h"  // NOLINT
#include "clapf/util/crc32.h"             // NOLINT
#include "clapf/util/crc32.h"             // NOLINT
#include "clapf/util/csv.h"               // NOLINT
#include "clapf/util/fault_injection.h"   // NOLINT
#include "clapf/util/fault_injection.h"   // NOLINT
#include "clapf/util/flags.h"             // NOLINT
#include "clapf/util/fs.h"                // NOLINT
#include "clapf/util/fs.h"                // NOLINT
#include "clapf/util/linalg.h"            // NOLINT
#include "clapf/util/logging.h"           // NOLINT
#include "clapf/util/math.h"              // NOLINT
#include "clapf/util/random.h"            // NOLINT
#include "clapf/util/status.h"            // NOLINT
#include "clapf/util/stopwatch.h"         // NOLINT
#include "clapf/util/string_util.h"       // NOLINT
#include "clapf/util/table_printer.h"     // NOLINT
#include "clapf/util/thread_pool.h"       // NOLINT
#include "clapf/util/top_k.h"             // NOLINT
#include "clapf/clapf.h"                  // NOLINT
#include "clapf/clapf.h"                  // NOLINT

#include <gtest/gtest.h>

namespace clapf {
namespace {

TEST(HeadersTest, AllPublicHeadersAreSelfContainedAndGuarded) {
  // Compiling this translation unit is the assertion.
  SUCCEED();
}

}  // namespace
}  // namespace clapf

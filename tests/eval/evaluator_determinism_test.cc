// The deterministic parallel evaluator behind the serving-quality reports:
// its block partition and reduction order make the summary bit-identical
// at every thread count.

#include <gtest/gtest.h>

#include <vector>

#include "clapf/baselines/bpr.h"
#include "clapf/core/ranker.h"
#include "clapf/data/synthetic.h"
#include "clapf/eval/evaluator.h"

namespace clapf {
namespace {

TEST(EvaluatorDeterminismTest, ParallelResultIndependentOfThreadCount) {
  SyntheticConfig cfg;
  cfg.num_users = 300;  // > one 256-user block, so the reduction really runs
  cfg.num_items = 80;
  cfg.num_interactions = 3000;
  cfg.seed = 5;
  Dataset data = *GenerateSynthetic(cfg);

  BprOptions o;
  o.sgd.num_factors = 4;
  o.sgd.iterations = 2000;
  o.sgd.seed = 9;
  BprTrainer t(o);
  ASSERT_TRUE(t.Train(data).ok());

  Evaluator eval(&data, &data);
  FactorModelRanker ranker(t.model());
  const std::vector<int> ks = {3, 5, 10};
  EvalSummary one = eval.EvaluateParallel(ranker, ks, 1);
  EvalSummary eight = eval.EvaluateParallel(ranker, ks, 8);

  // The block partition and reduction order are fixed, so every accumulated
  // double must agree to the last bit across thread counts.
  EXPECT_EQ(one.users_evaluated, eight.users_evaluated);
  EXPECT_EQ(one.map, eight.map);
  EXPECT_EQ(one.mrr, eight.mrr);
  EXPECT_EQ(one.auc, eight.auc);
  ASSERT_EQ(one.at_k.size(), eight.at_k.size());
  for (size_t i = 0; i < one.at_k.size(); ++i) {
    EXPECT_EQ(one.at_k[i].precision, eight.at_k[i].precision);
    EXPECT_EQ(one.at_k[i].recall, eight.at_k[i].recall);
    EXPECT_EQ(one.at_k[i].f1, eight.at_k[i].f1);
    EXPECT_EQ(one.at_k[i].one_call, eight.at_k[i].one_call);
    EXPECT_EQ(one.at_k[i].ndcg, eight.at_k[i].ndcg);
  }
}

}  // namespace
}  // namespace clapf

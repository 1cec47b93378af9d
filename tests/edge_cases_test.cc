// Edge-case regression tests that cut across modules: boundary sizes,
// degenerate datasets, extreme parameters.

#include <gtest/gtest.h>

#include <cmath>

#include "clapf/clapf.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

TEST(EdgeCaseTest, TopKLargerThanCatalog) {
  FactorModel model = testing::MakeExactModel({{3.0, 1.0, 2.0}});
  auto top = model.TopKForUser(0, 10, nullptr);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].item, 0);
  EXPECT_EQ(top[1].item, 2);
  EXPECT_EQ(top[2].item, 1);
}

TEST(EdgeCaseTest, TopKWithEverythingExcluded) {
  FactorModel model = testing::MakeExactModel({{3.0, 1.0}});
  Dataset all = testing::MakeDataset(1, 2, {{0, 0}, {0, 1}});
  auto top = model.TopKForUser(0, 5, &all);
  EXPECT_TRUE(top.empty());
}

TEST(EdgeCaseTest, SingleUserSingleItemTraining) {
  // The smallest trainable problem: 1 user, 2 items, 1 observation.
  Dataset train = testing::MakeDataset(1, 2, {{0, 0}});
  ClapfOptions opts;
  opts.sgd.num_factors = 2;
  opts.sgd.iterations = 500;
  ClapfTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(train).ok());
  // The observed item must outrank the unobserved one.
  EXPECT_GT(trainer.model()->Score(0, 0), trainer.model()->Score(0, 1));
}

TEST(EdgeCaseTest, SmoothedRrApproachesHalfForDominantSingleItem) {
  // Eq. (6)'s product runs over every observed k including k = i, whose
  // factor is 1 − σ(0) = 0.5. With one dominant observed item the smoothed
  // RR therefore approaches σ(f)·0.5 = 0.5, not 1.
  Dataset data = testing::MakeDataset(1, 3, {{0, 1}});
  FactorModel model = testing::MakeExactModel({{-50.0, 50.0, -50.0}});
  EXPECT_NEAR(SmoothedReciprocalRank(model, data, 0), 0.5, 1e-9);
}

TEST(EdgeCaseTest, SmoothedApZeroWithoutObservations) {
  Dataset data = testing::MakeDataset(1, 3, {});
  FactorModel model(1, 3, 2);
  EXPECT_DOUBLE_EQ(SmoothedAveragePrecision(model, data, 0), 0.0);
  EXPECT_DOUBLE_EQ(SmoothedReciprocalRank(model, data, 0), 0.0);
}

TEST(EdgeCaseTest, ZeroIterationTrainingLeavesInitialModel) {
  Dataset train = testing::MakeDataset(2, 4, {{0, 0}, {1, 1}});
  BprOptions opts;
  opts.sgd.iterations = 0;
  opts.sgd.num_factors = 3;
  BprTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(train).ok());
  // Bias starts at zero under Gaussian init.
  EXPECT_DOUBLE_EQ(trainer.model()->ItemBias(0), 0.0);
}

TEST(EdgeCaseTest, EvaluatorWithEmptyTestSet) {
  Dataset train = testing::MakeDataset(2, 4, {{0, 0}});
  Dataset test = testing::MakeDataset(2, 4, {});
  FactorModel model(2, 4, 2);
  Evaluator eval(&train, &test);
  EvalSummary summary = eval.Evaluate(model, {5});
  EXPECT_EQ(summary.users_evaluated, 0);
  EXPECT_DOUBLE_EQ(summary.map, 0.0);
}

TEST(EdgeCaseTest, RandomWalkZeroRestart) {
  Dataset train = testing::MakeDataset(2, 3, {{0, 0}, {1, 0}, {1, 1}});
  RandomWalkOptions opts;
  opts.restart_probability = 0.0;
  opts.reachable_threshold = 1;
  RandomWalkTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(train).ok());
  std::vector<double> scores;
  trainer.ScoreItems(0, &scores);
  EXPECT_GT(scores[1], 0.0);  // reachable through shared item 0
}

TEST(EdgeCaseTest, GeneratorWithOneItemPerUser) {
  SyntheticConfig cfg;
  cfg.num_users = 20;
  cfg.num_items = 40;
  cfg.num_interactions = 20;  // exactly one per user
  cfg.seed = 3;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_interactions(), 20);
  for (UserId u = 0; u < 20; ++u) EXPECT_EQ(data->NumItemsOf(u), 1);
}

TEST(EdgeCaseTest, ClapfLambdaBoundariesTrain) {
  Dataset train = testing::MakeLearnableDataset(20, 30, 5, 7);
  for (double lambda : {0.0, 1.0}) {
    ClapfOptions opts;
    opts.lambda = lambda;
    opts.sgd.num_factors = 4;
    opts.sgd.iterations = 2000;
    ClapfTrainer trainer(opts);
    EXPECT_TRUE(trainer.Train(train).ok()) << "lambda=" << lambda;
  }
}

TEST(EdgeCaseTest, WmfOnSingleInteraction) {
  Dataset train = testing::MakeDataset(1, 2, {{0, 0}});
  WmfOptions opts;
  opts.num_factors = 2;
  opts.sweeps = 3;
  WmfTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(train).ok());
  EXPECT_GT(trainer.model()->Score(0, 0), trainer.model()->Score(0, 1));
}

TEST(EdgeCaseTest, RecommenderOnFullyColdDataset) {
  Dataset history = testing::MakeDataset(2, 3, {});
  ModelServer server(history, ServerOptions{});
  ASSERT_TRUE(server.PublishModel(FactorModel(2, 3, 2)).ok());
  auto top = server.Recommend(0, 2, QueryOptions{});
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 2u);  // popularity fallback over all-zero counts
}

}  // namespace
}  // namespace clapf

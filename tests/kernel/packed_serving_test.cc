// End-to-end tests for packed inference in the serving stack: the packed
// Retrieve path's parity with the exact double scan, the
// QueryOptions::use_packed opt-out, ModelServer's publish-time packed build
// + canary agreement gate, the Ranker::ScoreItemRange fallback counter, and
// range-vs-full-scan parity for every in-tree ranker.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "clapf/baselines/ease.h"
#include "clapf/baselines/item_knn.h"
#include "clapf/core/ranker.h"
#include "clapf/core/trainer_factory.h"
#include "clapf/eval/oracle.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

FactorModel MakeRandomModel(int32_t num_users, int32_t num_items,
                            int32_t num_factors, uint64_t seed) {
  FactorModel model(num_users, num_items, num_factors);
  Rng rng(seed);
  model.InitGaussian(rng, 0.5);
  for (ItemId i = 0; i < num_items; ++i) {
    model.ItemBias(i) = rng.NextDouble() - 0.5;
  }
  return model;
}

TEST(PackedRecommenderTest, PackedTopKMatchesExactOnGoldenFixture) {
  // Gaussian factors give well-separated scores, so the float32 repack must
  // reproduce the exact top-k (ids and order) for every user.
  const auto history = testing::MakeLearnableDataset(24, 60, 8, 5);
  const FactorModel model = MakeRandomModel(24, 60, 16, 5);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  ASSERT_TRUE(VerifyPackedAgreement(model, packed, 24, "test").ok());
  const RetrievalLayers layers{&model, &packed, nullptr};

  QueryOptions exact_opts;
  exact_opts.use_packed = false;
  for (UserId u = 0; u < 24; ++u) {
    auto exact = testing::RetrieveTopK(layers, history, u, 10, exact_opts);
    auto fast = testing::RetrieveTopK(layers, history, u, 10);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(exact->size(), fast->size()) << "user " << u;
    for (size_t x = 0; x < exact->size(); ++x) {
      EXPECT_EQ((*exact)[x].item, (*fast)[x].item)
          << "user " << u << " rank " << x;
      EXPECT_NEAR((*exact)[x].score, (*fast)[x].score, 1e-4)
          << "user " << u << " rank " << x;
    }
  }
}

TEST(PackedRecommenderTest, UsePackedFalseStaysBitIdenticalToExactPath) {
  const auto history = testing::MakeLearnableDataset(10, 40, 6, 9);
  const FactorModel model = MakeRandomModel(10, 40, 8, 9);
  const PackedSnapshot packed = PackedSnapshot::Build(model);

  QueryOptions opts;
  opts.use_packed = false;
  for (UserId u = 0; u < 10; ++u) {
    // No snapshot: exact anyway.
    auto want = testing::RetrieveTopK({&model, nullptr, nullptr}, history, u,
                                      7);
    auto got =
        testing::RetrieveTopK({&model, &packed, nullptr}, history, u, 7, opts);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want->size(), got->size());
    for (size_t x = 0; x < want->size(); ++x) {
      EXPECT_EQ((*want)[x].item, (*got)[x].item);
      // Bit-identical, not merely close: the exact double path is untouched.
      EXPECT_EQ((*want)[x].score, (*got)[x].score);
    }
  }
}

TEST(PackedRecommenderTest, ExcludeAndMinScoreApplyOnPackedPath) {
  const auto history = testing::MakeLearnableDataset(8, 30, 5, 21);
  const FactorModel model = MakeRandomModel(8, 30, 8, 21);
  const PackedSnapshot packed = PackedSnapshot::Build(model);
  const RetrievalLayers layers{&model, &packed, nullptr};

  QueryOptions opts;
  opts.exclude = {0, 1, 2, 3, 4};
  auto got = testing::RetrieveTopK(layers, history, 0, 30, opts);
  ASSERT_TRUE(got.ok());
  for (const ScoredItem& item : *got) {
    EXPECT_GT(item.item, 4) << "excluded item served";
    EXPECT_FALSE(history.IsObserved(0, item.item)) << "history item served";
  }

  QueryOptions floor;
  floor.min_score = 0.0;
  auto filtered = testing::RetrieveTopK(layers, history, 0, 30, floor);
  ASSERT_TRUE(filtered.ok());
  for (const ScoredItem& item : *filtered) EXPECT_GE(item.score, 0.0);
}

TEST(PackedServerTest, PublishBuildsGatesAndServesPackedSnapshot) {
  const auto history = testing::MakeLearnableDataset(20, 50, 8, 33);
  ServerOptions options;
  options.num_threads = 1;
  ASSERT_TRUE(options.packed);  // packed serving is the default
  ModelServer server(history, options);

  auto model = MakeRandomModel(20, 50, 16, 33);
  ASSERT_TRUE(server.PublishModel(model).ok());
  EXPECT_EQ(server.version(), 1);
  EXPECT_FALSE(server.degraded());

  // The served ranking equals the exact top-k: packed approximation must not
  // reorder well-separated scores.
  for (UserId u = 0; u < 20; ++u) {
    auto served = server.Recommend(u, 5);
    const std::vector<ScoredItem> want = model.TopKForUser(u, 5, &history);
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->size(), want.size());
    for (size_t x = 0; x < want.size(); ++x) {
      EXPECT_EQ((*served)[x].item, want[x].item) << "user " << u;
    }
  }
}

TEST(PackedServerTest, PackedOffServesExactPath) {
  const auto history = testing::MakeLearnableDataset(10, 30, 5, 41);
  ServerOptions options;
  options.num_threads = 1;
  options.packed = false;
  ModelServer server(history, options);
  ASSERT_TRUE(server.PublishModel(MakeRandomModel(10, 30, 8, 41)).ok());
  auto got = server.Recommend(2, 5);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->empty());
}

TEST(PackedServerTest, CanaryStillRejectsCorruptCandidateWithPackedOn) {
  const auto history = testing::MakeLearnableDataset(10, 30, 5, 43);
  ServerOptions options;
  options.num_threads = 1;
  ModelServer server(history, options);
  auto bad = MakeRandomModel(10, 30, 8, 43);
  bad.mutable_user_factor_data()[3] = std::nan("");
  EXPECT_FALSE(server.PublishModel(std::move(bad)).ok());
  EXPECT_TRUE(server.degraded());
}

TEST(RangeFallbackTest, BaseScoreItemRangeBumpsCounter) {
  // A ranker that "forgets" the range override goes through the base-class
  // full rescan, which must report itself.
  class NoRangeRanker : public Ranker {
   public:
    void ScoreItems(UserId, std::vector<double>* scores) const override {
      scores->assign(4, 1.0);
    }
  };
  Counter* counter =
      MetricsRegistry::Default().GetCounter("ranker.range_fallback_total");
  const int64_t before = counter->Value();
  NoRangeRanker ranker;
  std::vector<double> scores(4, 0.0);
  ranker.ScoreItemRange(0, 1, 3, &scores);
  EXPECT_EQ(counter->Value(), before + 1);
}

// Every in-tree ranker must override ScoreItemRange with a real range
// kernel: the range result must match the full scan on [begin, end) and the
// fallback counter must not move.
TEST(RangeFallbackTest, EveryInTreeRankerOverridesScoreItemRange) {
  const auto train = testing::MakeLearnableDataset(12, 24, 6, 55);

  MethodConfig config;
  config.sgd.num_factors = 8;
  config.sgd.iterations = 500;
  config.climf.sgd.num_factors = 8;
  config.climf.epochs = 2;
  config.wmf.num_factors = 8;
  config.wmf.sweeps = 2;
  config.neumf.embedding_dim = 4;
  config.neumf.epochs = 1;
  config.neupr.embedding_dim = 4;
  config.neupr.iterations = 200;
  config.deepicf.embedding_dim = 4;
  config.deepicf.epochs = 1;

  std::vector<std::unique_ptr<Trainer>> rankers;
  for (MethodKind kind : AllMethodsWithExtensions()) {
    rankers.push_back(MakeTrainer(kind, config));
  }
  rankers.push_back(std::make_unique<EaseTrainer>(EaseOptions{}));
  rankers.push_back(std::make_unique<ItemKnnTrainer>(ItemKnnOptions{}));

  Counter* counter =
      MetricsRegistry::Default().GetCounter("ranker.range_fallback_total");
  for (auto& trainer : rankers) {
    ASSERT_TRUE(trainer->Train(train).ok()) << trainer->name();
    const int64_t before = counter->Value();
    std::vector<double> full;
    trainer->ScoreItems(3, &full);
    std::vector<double> part(full.size(), -1e300);
    trainer->ScoreItemRange(3, 5, 17, &part);
    EXPECT_EQ(counter->Value(), before)
        << trainer->name() << " fell back to the base full rescan";
    for (ItemId i = 5; i < 17; ++i) {
      EXPECT_DOUBLE_EQ(part[static_cast<size_t>(i)],
                       full[static_cast<size_t>(i)])
          << trainer->name() << " item " << i;
    }
  }
}

TEST(RangeFallbackTest, OracleRankerOverridesScoreItemRange) {
  SyntheticConfig config;
  config.num_users = 8;
  config.num_items = 20;
  config.num_interactions = 100;
  SyntheticGroundTruth truth;
  ASSERT_TRUE(GenerateSynthetic(config, &truth).ok());
  OracleRanker oracle(&truth);
  Counter* counter =
      MetricsRegistry::Default().GetCounter("ranker.range_fallback_total");
  const int64_t before = counter->Value();
  std::vector<double> full;
  oracle.ScoreItems(1, &full);
  std::vector<double> part(full.size(), 0.0);
  oracle.ScoreItemRange(1, 4, 15, &part);
  EXPECT_EQ(counter->Value(), before);
  for (ItemId i = 4; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(part[static_cast<size_t>(i)],
                     full[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace clapf

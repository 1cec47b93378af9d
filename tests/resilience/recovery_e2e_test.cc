// End-to-end crash/recovery drills: a training run is killed by an injected
// fault (poisoned gradient, torn checkpoint, failed rename), restarted with
// the same options, and must reproduce the uninterrupted run bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "clapf/core/checkpoint.h"
#include "clapf/core/clapf_trainer.h"
#include "clapf/model/model_io.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/fs.h"
#include "clapf/util/logging.h"
#include "testing/fault_schedule.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

using clapf::testing::ScopedFaultSchedule;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "e2e_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A shared config: uniform sampler (so resume is bit-exact), modest size.
ClapfOptions BaseOptions() {
  ClapfOptions opts;
  opts.sgd.iterations = 3000;
  opts.sgd.num_factors = 8;
  opts.sgd.seed = 99;
  opts.sampler = ClapfSamplerKind::kUniform;
  return opts;
}

Dataset TrainData() { return testing::MakeLearnableDataset(30, 40, 8, 23); }

// Reference: the same options trained start-to-finish with no checkpointing
// and no faults.
FactorModel UninterruptedRun(double* avg_loss) {
  ClapfTrainer trainer(BaseOptions());
  CLAPF_CHECK_OK(trainer.Train(TrainData()));
  if (avg_loss != nullptr) *avg_loss = trainer.last_average_loss();
  return *trainer.model();
}

TEST(RecoveryE2eTest, ResumeAfterCrashIsBitIdentical) {
  double ref_loss = 0.0;
  const FactorModel reference = UninterruptedRun(&ref_loss);

  ClapfOptions opts = BaseOptions();
  opts.checkpoint.dir = FreshDir("bit_identical");
  opts.checkpoint.interval = 500;

  {
    // "Crash" at iteration 2750 via a poisoned gradient + halt policy. The
    // newest surviving checkpoint is the one from iteration 2500.
    ClapfOptions crash = opts;
    crash.sgd.divergence.policy = DivergencePolicy::kHalt;
    ScopedFaultSchedule faults(
        {{FaultPoint::kSgdStepNan, {.trigger_at_hit = 2750}}});
    ClapfTrainer trainer(crash);
    Status s = trainer.Train(TrainData());
    ASSERT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  }

  // Restart with the same options: resumes from iteration 2500, replays the
  // consumed sampler draws, and finishes the remaining 500 iterations.
  ClapfTrainer resumed(opts);
  ASSERT_TRUE(resumed.Train(TrainData()).ok());

  EXPECT_EQ(resumed.model()->user_factor_data(),
            reference.user_factor_data());
  EXPECT_EQ(resumed.model()->item_factor_data(),
            reference.item_factor_data());
  EXPECT_EQ(resumed.model()->item_bias_data(), reference.item_bias_data());
  // Loss accumulators ride along in the checkpoint, so even the diagnostic
  // average matches exactly.
  EXPECT_DOUBLE_EQ(resumed.last_average_loss(), ref_loss);
}

// The headline acceptance drill: one checkpoint is torn by a short write, a
// later iteration produces NaN, and recovery must fall back past the corrupt
// snapshot to the newest VALID one — still ending bit-identical.
TEST(RecoveryE2eTest, ResumeSkipsTornCheckpoint) {
  const FactorModel reference = UninterruptedRun(nullptr);

  ClapfOptions opts = BaseOptions();
  opts.checkpoint.dir = FreshDir("torn_ckpt");
  opts.checkpoint.interval = 500;

  {
    // The 5th checkpoint write (iteration 2500) is torn in half on disk;
    // the run then dies at iteration 2750.
    ClapfOptions crash = opts;
    crash.sgd.divergence.policy = DivergencePolicy::kHalt;
    ScopedFaultSchedule faults({
        {FaultPoint::kModelWriteShort, {.trigger_at_hit = 5}},
        {FaultPoint::kSgdStepNan, {.trigger_at_hit = 2750}},
    });
    ClapfTrainer trainer(crash);
    ASSERT_EQ(trainer.Train(TrainData()).code(), StatusCode::kInternal);
  }

  // Sanity: the torn checkpoint really is unreadable.
  EXPECT_EQ(CheckpointManager::ReadCheckpointFile(opts.checkpoint.dir +
                                                  "/ckpt-000000002500.ckpt")
                .status()
                .code(),
            StatusCode::kCorruption);

  // Recovery skips iteration 2500's snapshot and resumes from 2000.
  ClapfTrainer resumed(opts);
  ASSERT_TRUE(resumed.Train(TrainData()).ok());
  EXPECT_EQ(resumed.model()->user_factor_data(),
            reference.user_factor_data());
  EXPECT_EQ(resumed.model()->item_factor_data(),
            reference.item_factor_data());
  EXPECT_EQ(resumed.model()->item_bias_data(), reference.item_bias_data());
}

TEST(RecoveryE2eTest, IncompatibleCheckpointIsIgnored) {
  ClapfOptions opts = BaseOptions();
  opts.sgd.iterations = 600;
  opts.checkpoint.dir = FreshDir("incompatible");
  opts.checkpoint.interval = 200;
  {
    ClapfTrainer first(opts);
    ASSERT_TRUE(first.Train(TrainData()).ok());
  }
  // A different seed must not adopt the other run's snapshots.
  ClapfOptions other = opts;
  other.sgd.seed = 7;
  ClapfTrainer trainer(other);
  ASSERT_TRUE(trainer.Train(TrainData()).ok());

  ClapfOptions fresh = other;
  fresh.checkpoint = CheckpointOptions{};
  ClapfTrainer scratch(fresh);
  ASSERT_TRUE(scratch.Train(TrainData()).ok());
  // Wrote checkpoints under its own seed, but trained from scratch exactly
  // like a run with no checkpoint directory at all.
  EXPECT_EQ(trainer.model()->user_factor_data(),
            scratch.model()->user_factor_data());
}

TEST(RecoveryE2eTest, ResumeDisabledTrainsFromScratch) {
  ClapfOptions opts = BaseOptions();
  opts.sgd.iterations = 600;
  opts.checkpoint.dir = FreshDir("no_resume");
  opts.checkpoint.interval = 200;
  {
    ClapfTrainer first(opts);
    ASSERT_TRUE(first.Train(TrainData()).ok());
  }
  ClapfOptions no_resume = opts;
  no_resume.checkpoint.resume = false;
  ClapfTrainer trainer(no_resume);
  ASSERT_TRUE(trainer.Train(TrainData()).ok());

  ClapfOptions fresh = opts;
  fresh.checkpoint = CheckpointOptions{};
  ClapfTrainer scratch(fresh);
  ASSERT_TRUE(scratch.Train(TrainData()).ok());
  EXPECT_EQ(trainer.model()->user_factor_data(),
            scratch.model()->user_factor_data());
}

// Serving-side degradation: a corrupt model file must fail loudly at load so
// the caller can fall back (examples/serving.cpp shows the refused publish
// and the server's popularity answers), and a valid checkpoint lets the
// server publish a recovered model.
TEST(RecoveryE2eTest, CorruptModelFileFailsLoadButCheckpointRecovers) {
  ClapfOptions opts = BaseOptions();
  opts.sgd.iterations = 1000;
  opts.checkpoint.dir = FreshDir("serving");
  opts.checkpoint.interval = 250;
  ClapfTrainer trainer(opts);
  ASSERT_TRUE(trainer.Train(TrainData()).ok());

  const std::string model_path = ::testing::TempDir() + "e2e_served.clpf";
  ASSERT_TRUE(SaveModelAtomic(*trainer.model(), model_path).ok());

  // Bit rot hits the served model file.
  auto contents = ReadFileToString(model_path);
  ASSERT_TRUE(contents.ok());
  std::string damaged = *contents;
  damaged[damaged.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteStringToFile(model_path, damaged).ok());

  auto broken = LoadModel(model_path);
  EXPECT_EQ(broken.status().code(), StatusCode::kCorruption);

  // The newest checkpoint still holds a healthy model.
  CheckpointManager manager(opts.checkpoint);
  ASSERT_TRUE(manager.Init().ok());
  auto recovered = manager.LoadLatest();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->state.iteration, 1000);
  EXPECT_EQ(recovered->model.user_factor_data(),
            trainer.model()->user_factor_data());

  ModelServer serving(TrainData(), ServerOptions{});
  ASSERT_TRUE(serving.PublishModel(std::move(recovered->model)).ok());
  auto recs = serving.Recommend(0, 5, QueryOptions{});
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(recs->size(), 5u);
}

}  // namespace
}  // namespace clapf

#include "clapf/online/online_trainer.h"

#include <algorithm>
#include <memory>

#include "clapf/baselines/bpr.h"
#include "clapf/core/sgd_executor.h"
#include "clapf/data/dataset_builder.h"
#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {

constexpr uint64_t kReservoirSalt = 0x7265737672ULL;  // "resvr"
constexpr uint64_t kGrowthSalt = 0x67726f77ULL;       // "grow"

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ salt;
  return SplitMix64(state);
}

}  // namespace

OnlineTrainer::OnlineTrainer(const Dataset& bootstrap,
                             const OnlineTrainerOptions& options)
    : options_(options),
      num_users_(bootstrap.num_users()),
      num_items_(bootstrap.num_items()),
      model_(std::max(1, bootstrap.num_users()),
             std::max(1, bootstrap.num_items()), options.sgd.num_factors,
             options.sgd.use_item_bias),
      reservoir_rng_(MixSeed(options.sgd.seed, kReservoirSalt)) {
  CLAPF_CHECK(options_.sgd.num_factors > 0);
  CLAPF_CHECK(options_.epochs_per_increment > 0);
  CLAPF_CHECK(options_.reservoir_capacity >= 0);
  num_users_ = std::max(num_users_, 1);
  num_items_ = std::max(num_items_, 1);
  Rng init_rng(options_.sgd.seed);
  model_.InitGaussian(init_rng, options_.sgd.init_stddev);
  if (options_.sgd.metrics != nullptr) {
    MetricsRegistry* m = options_.sgd.metrics;
    increments_total_ = m->GetCounter("online.trainer.increments_total");
    rollbacks_total_ = m->GetCounter("online.trainer.rollbacks_total");
    users_gauge_ = m->GetGauge("online.trainer.users");
    items_gauge_ = m->GetGauge("online.trainer.items");
    users_gauge_->Set(static_cast<double>(num_users_));
    items_gauge_->Set(static_cast<double>(num_items_));
  }
  // Stream the bootstrap interactions through the reservoir (user-major
  // order — deterministic) so the first increments already mix history.
  reservoir_.reserve(static_cast<size_t>(
      std::min<int64_t>(options_.reservoir_capacity,
                        bootstrap.num_interactions())));
  for (UserId u = 0; u < bootstrap.num_users(); ++u) {
    for (ItemId i : bootstrap.ItemsOf(u)) {
      ++ingested_;
      if (static_cast<int64_t>(reservoir_.size()) <
          options_.reservoir_capacity) {
        reservoir_.emplace_back(u, i);
      } else if (options_.reservoir_capacity > 0) {
        const uint64_t j =
            reservoir_rng_.Uniform(static_cast<uint64_t>(ingested_));
        if (j < static_cast<uint64_t>(options_.reservoir_capacity)) {
          reservoir_[static_cast<size_t>(j)] = {u, i};
        }
      }
    }
  }
}

void OnlineTrainer::Ingest(UserId u, ItemId i) {
  CLAPF_CHECK(u >= 0);
  CLAPF_CHECK(i >= 0);
  num_users_ = std::max(num_users_, u + 1);
  num_items_ = std::max(num_items_, i + 1);
  tail_.emplace_back(u, i);
  // Algorithm R over the full ingest stream: every record — bootstrap or
  // online — had probability capacity/ingested of being retained, so the
  // history mix is unbiased no matter how long the day runs.
  ++ingested_;
  if (static_cast<int64_t>(reservoir_.size()) < options_.reservoir_capacity) {
    reservoir_.emplace_back(u, i);
  } else if (options_.reservoir_capacity > 0) {
    const uint64_t j =
        reservoir_rng_.Uniform(static_cast<uint64_t>(ingested_));
    if (j < static_cast<uint64_t>(options_.reservoir_capacity)) {
      reservoir_[static_cast<size_t>(j)] = {u, i};
    }
  }
  if (users_gauge_ != nullptr) {
    users_gauge_->Set(static_cast<double>(num_users_));
    items_gauge_->Set(static_cast<double>(num_items_));
  }
}

void OnlineTrainer::DiscardTail() { tail_.clear(); }

void OnlineTrainer::RestoreModel(FactorModel model) {
  num_users_ = std::max(num_users_, model.num_users());
  num_items_ = std::max(num_items_, model.num_items());
  model_ = std::move(model);
}

Status OnlineTrainer::TrainIncrement(uint64_t increment_seed) {
  if (tail_.empty()) return Status::OK();

  // On-the-fly allocation: ids ingested past the model's dimensions get
  // their rows now, Gaussian-initialized from a per-increment stream so a
  // re-run of this increment (crash replay) expands bit-identically.
  if (model_.num_users() < num_users_ || model_.num_items() < num_items_) {
    Rng growth_rng(MixSeed(increment_seed, kGrowthSalt));
    model_.ExpandTo(num_users_, num_items_, growth_rng,
                    options_.sgd.init_stddev);
  }

  // The increment corpus: fresh tail plus the reservoir's slice of history.
  // DatasetBuilder sorts and dedups, so insertion order is irrelevant.
  DatasetBuilder builder(num_users_, num_items_);
  for (const auto& [u, i] : reservoir_) {
    CLAPF_RETURN_IF_ERROR(builder.Add(u, i));
  }
  for (const auto& [u, i] : tail_) {
    CLAPF_RETURN_IF_ERROR(builder.Add(u, i));
  }
  Dataset increment = builder.Build();
  if (TrainableUsers(increment).empty()) {
    // Degenerate corpus (e.g. a single item): nothing pairwise to learn.
    // The tail is still consumed — these records live on in the reservoir.
    tail_.clear();
    ++increments_;
    if (increments_total_ != nullptr) increments_total_->Inc();
    return Status::OK();
  }

  // Belt and braces around the in-loop DivergenceGuard: a halted increment
  // must leave the model exactly as it was, so the deployer always has a
  // last-good to serve.
  const std::vector<double> user_backup = model_.user_factor_data();
  const std::vector<double> item_backup = model_.item_factor_data();
  const std::vector<double> bias_backup = model_.item_bias_data();

  SgdExecutorConfig config;
  config.num_threads = options_.sgd.num_threads;
  config.iterations =
      options_.epochs_per_increment * increment.num_interactions();
  config.learning_rate = options_.sgd.learning_rate;
  config.final_learning_rate_fraction =
      options_.sgd.final_learning_rate_fraction;
  config.divergence = options_.sgd.divergence;
  config.metrics = options_.sgd.metrics;
  config.epoch_iterations =
      static_cast<int64_t>(increment.num_interactions());

  // Warm-start BPR steps over the increment's own small Dataset.
  auto factory = [&](int w, int n) -> std::unique_ptr<SgdWorker> {
    return MakeBprWorker(&model_, options_.sgd,
                         std::make_unique<UniformPairSampler>(
                             &increment, WorkerSeed(increment_seed, w)),
                         n > 1);
  };

  Status run = SgdExecutor::Run(config, &model_, factory);
  if (!run.ok()) {
    model_.mutable_user_factor_data() = user_backup;
    model_.mutable_item_factor_data() = item_backup;
    model_.mutable_item_bias_data() = bias_backup;
    if (rollbacks_total_ != nullptr) rollbacks_total_->Inc();
    CLAPF_LOG(Warning) << "online increment halted, model rolled back to "
                          "last-good: "
                       << run.ToString();
    return run;
  }
  tail_.clear();
  ++increments_;
  if (increments_total_ != nullptr) increments_total_->Inc();
  return Status::OK();
}

}  // namespace clapf

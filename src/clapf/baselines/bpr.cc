#include "clapf/baselines/bpr.h"

#include <memory>
#include <utility>

#include "clapf/core/sgd_executor.h"
#include "clapf/sampling/aobpr_sampler.h"
#include "clapf/sampling/dns_sampler.h"
#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"
#include "clapf/util/math.h"

namespace clapf {

namespace {

// One BPR SGD step under an access policy. The PlainAccess instantiation
// reproduces the pre-executor serial loop bit-for-bit; RelaxedAccess is the
// HogWild kernel.
template <typename Access>
class BprWorker final : public SgdWorker {
 public:
  BprWorker(FactorModel* model, const SgdOptions& sgd,
            std::unique_ptr<PairSampler> sampler)
      : model_(model),
        sampler_(std::move(sampler)),
        reg_u_(sgd.reg_user),
        reg_v_(sgd.reg_item),
        reg_b_(sgd.reg_bias),
        d_(sgd.num_factors),
        bias_(sgd.use_item_bias) {}

  double PrepareStep() override {
    p_ = sampler_->Sample();
    return ScoreWith<Access>(*model_, p_.u, p_.i) -
           ScoreWith<Access>(*model_, p_.u, p_.j);
  }

  void ApplyStep(double lr, double margin) override {
    const double g = Sigmoid(-margin);
    auto uu = model_->UserFactors(p_.u);
    auto vi = model_->ItemFactors(p_.i);
    auto vj = model_->ItemFactors(p_.j);
    for (int32_t f = 0; f < d_; ++f) {
      const double u_old = Access::Load(uu[f]);
      const double vi_f = Access::Load(vi[f]);
      const double vj_f = Access::Load(vj[f]);
      Access::Store(uu[f], u_old + lr * (g * (vi_f - vj_f) - reg_u_ * u_old));
      Access::Store(vi[f], vi_f + lr * (g * u_old - reg_v_ * vi_f));
      Access::Store(vj[f], vj_f + lr * (-g * u_old - reg_v_ * vj_f));
    }
    if (bias_) {
      double& bi = model_->ItemBias(p_.i);
      double& bj = model_->ItemBias(p_.j);
      const double bi_old = Access::Load(bi);
      const double bj_old = Access::Load(bj);
      Access::Store(bi, bi_old + lr * (g - reg_b_ * bi_old));
      Access::Store(bj, bj_old + lr * (-g - reg_b_ * bj_old));
    }
  }

 private:
  FactorModel* model_;
  std::unique_ptr<PairSampler> sampler_;
  const double reg_u_, reg_v_, reg_b_;
  const int32_t d_;
  const bool bias_;
  PairSample p_;
};

}  // namespace

std::unique_ptr<SgdWorker> MakeBprWorker(FactorModel* model,
                                         const SgdOptions& sgd,
                                         std::unique_ptr<PairSampler> sampler,
                                         bool relaxed) {
  if (relaxed) {
    return std::make_unique<BprWorker<RelaxedAccess>>(model, sgd,
                                                      std::move(sampler));
  }
  return std::make_unique<BprWorker<PlainAccess>>(model, sgd,
                                                  std::move(sampler));
}

BprTrainer::BprTrainer(const BprOptions& options) : options_(options) {}

std::string BprTrainer::name() const {
  switch (options_.sampler) {
    case PairSamplerKind::kUniform:
      return "BPR";
    case PairSamplerKind::kDns:
      return "BPR-DNS";
    case PairSamplerKind::kAobpr:
      return "AoBPR";
  }
  return "BPR";
}

std::unique_ptr<PairSampler> BprTrainer::MakeSampler(const Dataset& train,
                                                     uint64_t seed) const {
  switch (options_.sampler) {
    case PairSamplerKind::kUniform:
      return std::make_unique<UniformPairSampler>(&train, seed);
    case PairSamplerKind::kDns:
      return std::make_unique<DnsPairSampler>(&train, model_.get(),
                                              options_.dns_candidates, seed);
    case PairSamplerKind::kAobpr: {
      AobprPairSampler::Options opts;
      opts.tail_fraction = options_.aobpr_tail_fraction;
      opts.metrics = options_.sgd.metrics;
      return std::make_unique<AobprPairSampler>(&train, model_.get(), opts,
                                                seed);
    }
  }
  return nullptr;
}

Status BprTrainer::Train(const Dataset& train) {
  if (options_.sgd.num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive");
  }
  if (train.num_interactions() == 0) {
    return Status::FailedPrecondition("training data is empty");
  }
  if (TrainableUsers(train).empty()) {
    return Status::FailedPrecondition(
        "no user has both observed and unobserved items");
  }

  Rng init_rng(options_.sgd.seed);
  model_ = std::make_unique<FactorModel>(
      train.num_users(), train.num_items(), options_.sgd.num_factors,
      options_.sgd.use_item_bias);
  model_->InitGaussian(init_rng, options_.sgd.init_stddev);

  SgdExecutorConfig config;
  config.num_threads = options_.sgd.num_threads;
  config.iterations = options_.sgd.iterations;
  config.learning_rate = options_.sgd.learning_rate;
  config.final_learning_rate_fraction =
      options_.sgd.final_learning_rate_fraction;
  config.divergence = options_.sgd.divergence;
  config.metrics = options_.sgd.metrics;
  config.epoch_iterations = static_cast<int64_t>(train.num_interactions());

  const uint64_t base_seed = options_.sgd.seed ^ 0x5eedu;
  auto factory = [&](int w, int n) -> std::unique_ptr<SgdWorker> {
    // Per-worker sampler instance with an independent stream. The adaptive
    // samplers (DNS/AoBPR) additionally read the evolving model on every
    // draw, through relaxed atomic loads that may race the HogWild stores
    // without a data race (the tsan rung trains both on four threads).
    return MakeBprWorker(model_.get(), options_.sgd,
                         MakeSampler(train, WorkerSeed(base_seed, w)), n > 1);
  };

  SgdExecutor::ProbeFn probe;
  if (probe_installed()) probe = [this](int64_t it) { MaybeProbe(it); };
  return SgdExecutor::Run(config, model_.get(), factory, probe);
}

}  // namespace clapf

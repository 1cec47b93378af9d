#ifndef CLAPF_BASELINES_BPR_H_
#define CLAPF_BASELINES_BPR_H_

#include <memory>
#include <string>

#include "clapf/core/trainer.h"
#include "clapf/sampling/sampler.h"

namespace clapf {

class SgdWorker;

/// Negative sampler choices for BPR.
enum class PairSamplerKind { kUniform, kDns, kAobpr };

struct BprOptions {
  SgdOptions sgd;
  PairSamplerKind sampler = PairSamplerKind::kUniform;
  /// Candidate pool size for DNS.
  int32_t dns_candidates = 5;
  /// Geometric head mass for AoBPR.
  double aobpr_tail_fraction = 0.2;
};

/// One BPR SGD step on `model` over the pairs `sampler` draws, for
/// SgdExecutor: the exact-access kernel (bit-identical serial runs), or the
/// HogWild kernel with relaxed atomic access when `relaxed`. BprTrainer and
/// OnlineTrainer both train through it.
std::unique_ptr<SgdWorker> MakeBprWorker(FactorModel* model,
                                         const SgdOptions& sgd,
                                         std::unique_ptr<PairSampler> sampler,
                                         bool relaxed);

/// Bayesian Personalized Ranking (Rendle et al., UAI 2009; paper Eq. 3):
/// SGD on pairs (u, i, j), ascending ln σ(f_ui − f_uj) with L2
/// regularization. The seminal pairwise baseline; CLAPF with λ = 0 recovers
/// this objective.
class BprTrainer : public FactorModelTrainer {
 public:
  explicit BprTrainer(const BprOptions& options);

  Status Train(const Dataset& train) override;
  std::string name() const override;

  const BprOptions& options() const { return options_; }

 private:
  /// Builds one sampler instance seeded with `seed`. Parallel training calls
  /// this once per worker so each worker owns an independent sample stream;
  /// the adaptive samplers (DNS/AoBPR) then rank against the shared model
  /// with unsynchronized reads (HogWild-benign, not TSan-clean).
  std::unique_ptr<PairSampler> MakeSampler(const Dataset& train,
                                           uint64_t seed) const;

  BprOptions options_;
};

}  // namespace clapf

#endif  // CLAPF_BASELINES_BPR_H_

#include "clapf/sampling/dns_sampler.h"

#include "clapf/sampling/rank_list.h"
#include "clapf/sampling/uniform_sampler.h"
#include "clapf/util/logging.h"

namespace clapf {

namespace {

// f_uj through relaxed loads, since HogWild workers write the factors while
// this reads them. Sums in FactorModel::Score's order (bias first, then the
// factors ascending), so a one-thread stream equals one scored by Score.
double ScoreRelaxed(const FactorModel& model, UserId u, ItemId j) {
  auto uf = model.UserFactors(u);
  auto vf = model.ItemFactors(j);
  double s = model.use_item_bias()
                 ? LoadRelaxed(model.item_bias_data()[static_cast<size_t>(j)])
                 : 0.0;
  for (size_t f = 0; f < uf.size(); ++f) {
    s += LoadRelaxed(uf[f]) * LoadRelaxed(vf[f]);
  }
  return s;
}

}  // namespace

DnsPairSampler::DnsPairSampler(const Dataset* dataset,
                               const FactorModel* model, int32_t candidates,
                               uint64_t seed)
    : dataset_(dataset),
      model_(model),
      candidates_(candidates),
      rng_(seed),
      active_users_(TrainableUsers(*dataset)) {
  CLAPF_CHECK(dataset != nullptr && model != nullptr);
  CLAPF_CHECK(candidates >= 1);
  CLAPF_CHECK(!active_users_.empty());
}

PairSample DnsPairSampler::Sample() {
  PairSample p;
  p.u = active_users_[rng_.Uniform(active_users_.size())];
  auto items = dataset_->ItemsOf(p.u);
  p.i = items[rng_.Uniform(items.size())];

  ItemId best = SampleUnobservedUniform(*dataset_, p.u, rng_);
  double best_score = ScoreRelaxed(*model_, p.u, best);
  for (int32_t c = 1; c < candidates_; ++c) {
    ItemId j = SampleUnobservedUniform(*dataset_, p.u, rng_);
    double s = ScoreRelaxed(*model_, p.u, j);
    if (s > best_score) {
      best = j;
      best_score = s;
    }
  }
  p.j = best;
  return p;
}

}  // namespace clapf

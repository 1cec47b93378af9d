#include "clapf/sampling/rank_list.h"

#include <algorithm>
#include <numeric>

#include "clapf/util/logging.h"

namespace clapf {

FactorRankList::FactorRankList(const FactorModel* model) : model_(model) {
  CLAPF_CHECK(model != nullptr);
  rankings_.resize(static_cast<size_t>(model->num_factors()));
  Refresh();
}

void FactorRankList::Refresh() {
  const int32_t m = model_->num_items();
  keys_.resize(static_cast<size_t>(m));
  for (int32_t q = 0; q < model_->num_factors(); ++q) {
    for (ItemId i = 0; i < m; ++i) {
      keys_[static_cast<size_t>(i)] =
          LoadRelaxed(model_->ItemFactors(i)[static_cast<size_t>(q)]);
    }
    auto& ranking = rankings_[static_cast<size_t>(q)];
    ranking.resize(static_cast<size_t>(m));
    std::iota(ranking.begin(), ranking.end(), 0);
    std::sort(ranking.begin(), ranking.end(), [&](ItemId a, ItemId b) {
      const double va = keys_[static_cast<size_t>(a)];
      const double vb = keys_[static_cast<size_t>(b)];
      if (va != vb) return va > vb;
      return a < b;
    });
  }
  ++refresh_count_;
}

ItemId FactorRankList::ItemAt(int32_t q, size_t position, bool reversed) const {
  const auto& ranking = rankings_[static_cast<size_t>(q)];
  CLAPF_DCHECK(position < ranking.size());
  return reversed ? ranking[ranking.size() - 1 - position] : ranking[position];
}

}  // namespace clapf

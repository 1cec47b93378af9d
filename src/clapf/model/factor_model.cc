#include "clapf/model/factor_model.h"

#include <algorithm>
#include <cmath>

#include "clapf/model/exact_scan.h"
#include "clapf/util/logging.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

FactorModel::FactorModel(int32_t num_users, int32_t num_items,
                         int32_t num_factors, bool use_item_bias)
    : num_users_(num_users),
      num_items_(num_items),
      num_factors_(num_factors),
      use_item_bias_(use_item_bias),
      user_factors_(static_cast<size_t>(num_users) * num_factors, 0.0),
      item_factors_(static_cast<size_t>(num_items) * num_factors, 0.0),
      item_bias_(static_cast<size_t>(num_items), 0.0) {
  CLAPF_CHECK(num_users >= 0);
  CLAPF_CHECK(num_items >= 0);
  CLAPF_CHECK(num_factors > 0);
}

void FactorModel::ExpandTo(int32_t new_users, int32_t new_items, Rng& rng,
                           double stddev) {
  CLAPF_CHECK(new_users >= num_users_);
  CLAPF_CHECK(new_items >= num_items_);
  const size_t d = static_cast<size_t>(num_factors_);
  const size_t old_user_doubles = user_factors_.size();
  const size_t old_item_doubles = item_factors_.size();
  user_factors_.resize(static_cast<size_t>(new_users) * d, 0.0);
  item_factors_.resize(static_cast<size_t>(new_items) * d, 0.0);
  item_bias_.resize(static_cast<size_t>(new_items), 0.0);
  if (stddev > 0.0) {
    for (size_t i = old_user_doubles; i < user_factors_.size(); ++i) {
      user_factors_[i] = rng.NextGaussian() * stddev;
    }
    for (size_t i = old_item_doubles; i < item_factors_.size(); ++i) {
      item_factors_[i] = rng.NextGaussian() * stddev;
    }
  }
  num_users_ = new_users;
  num_items_ = new_items;
}

void FactorModel::InitGaussian(Rng& rng, double stddev) {
  for (double& x : user_factors_) x = rng.NextGaussian() * stddev;
  for (double& x : item_factors_) x = rng.NextGaussian() * stddev;
  std::fill(item_bias_.begin(), item_bias_.end(), 0.0);
}

void FactorModel::InitUniform(Rng& rng, double range) {
  for (double& x : user_factors_) x = (rng.NextDouble() * 2.0 - 1.0) * range;
  for (double& x : item_factors_) x = (rng.NextDouble() * 2.0 - 1.0) * range;
  std::fill(item_bias_.begin(), item_bias_.end(), 0.0);
}

double FactorModel::Score(UserId u, ItemId i) const {
  const double* uf = &user_factors_[static_cast<size_t>(u) * num_factors_];
  const double* vf = &item_factors_[static_cast<size_t>(i) * num_factors_];
  double s = use_item_bias_ ? item_bias_[static_cast<size_t>(i)] : 0.0;
  for (int32_t f = 0; f < num_factors_; ++f) s += uf[f] * vf[f];
  return s;
}

void FactorModel::ScoreAllItems(UserId u, std::vector<double>* scores) const {
  scores->resize(static_cast<size_t>(num_items_));
  ScoreItemRange(u, 0, num_items_, scores);
}

void FactorModel::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                                 std::vector<double>* scores) const {
  CLAPF_CHECK(scores->size() == static_cast<size_t>(num_items_));
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= num_items_);
  ExactScoreItems(*this, u, begin, end, scores->data() + begin);
}

bool FactorModel::AllFinite() const {
  for (double x : user_factors_) {
    if (!std::isfinite(x)) return false;
  }
  for (double x : item_factors_) {
    if (!std::isfinite(x)) return false;
  }
  for (double x : item_bias_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::vector<ScoredItem> FactorModel::TopKForUser(UserId u, size_t k,
                                                 const Dataset* exclude) const {
  TopKAccumulator acc(k);
  const double* uf = &user_factors_[static_cast<size_t>(u) * num_factors_];
  auto observed = exclude != nullptr ? exclude->ItemsOf(u)
                                     : std::span<const ItemId>();
  // The bias branch is hoisted out of the scan (one instantiation per case)
  // so the inner product auto-vectorizes; scores are bit-identical to the
  // pre-hoist per-item-branch loop.
  auto scan = [&](const auto& bias_of) {
    size_t next_observed = 0;
    for (int32_t i = 0; i < num_items_; ++i) {
      // `observed` is sorted, so a single forward cursor skips exclusions.
      if (next_observed < observed.size() && observed[next_observed] == i) {
        ++next_observed;
        continue;
      }
      const double* vf = &item_factors_[static_cast<size_t>(i) * num_factors_];
      double s = bias_of(i);
      for (int32_t f = 0; f < num_factors_; ++f) s += uf[f] * vf[f];
      acc.Push(i, s);
    }
  };
  if (use_item_bias_) {
    scan([&](int32_t i) { return item_bias_[static_cast<size_t>(i)]; });
  } else {
    scan([](int32_t) { return 0.0; });
  }
  return acc.Take();
}

double FactorModel::SquaredNorm() const {
  double total = 0.0;
  for (double x : user_factors_) total += x * x;
  for (double x : item_factors_) total += x * x;
  for (double x : item_bias_) total += x * x;
  return total;
}

void FactorModel::CopyItemsFrom(const FactorModel& source, ItemId begin,
                                int threads) {
  CLAPF_CHECK(source.num_users_ == num_users_ &&
              source.num_factors_ == num_factors_ &&
              source.use_item_bias_ == use_item_bias_);
  CLAPF_CHECK(begin >= 0 && begin + num_items_ <= source.num_items_);
  // 512 KiB tiles of each array, all copied as one list of tasks.
  constexpr size_t kTileDoubles = size_t{1} << 16;
  struct Tile {
    const double* from;
    double* to;
    size_t n;
  };
  std::vector<Tile> tiles;
  const auto add = [&](const double* from, double* to, size_t n) {
    for (size_t at = 0; at < n; at += kTileDoubles) {
      tiles.push_back({from + at, to + at, std::min(kTileDoubles, n - at)});
    }
  };
  const size_t d = static_cast<size_t>(num_factors_);
  add(source.user_factors_.data(), user_factors_.data(),
      user_factors_.size());
  add(source.item_factors_.data() + static_cast<size_t>(begin) * d,
      item_factors_.data(), item_factors_.size());
  add(source.item_bias_.data() + static_cast<size_t>(begin),
      item_bias_.data(), item_bias_.size());
  ParallelForEach(static_cast<int64_t>(tiles.size()), threads,
                  [&](int64_t t) {
                    const Tile& tile = tiles[static_cast<size_t>(t)];
                    std::copy(tile.from, tile.from + tile.n, tile.to);
                  });
}

}  // namespace clapf

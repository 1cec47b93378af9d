#include "clapf/data/dataset.h"

#include <algorithm>
#include <sstream>

#include "clapf/util/logging.h"
#include "clapf/util/string_util.h"

namespace clapf {

double Dataset::Density() const {
  if (num_users_ == 0 || num_items_ == 0) return 0.0;
  return static_cast<double>(num_interactions()) /
         (static_cast<double>(num_users_) * static_cast<double>(num_items_));
}

bool Dataset::IsObserved(UserId u, ItemId i) const {
  auto items = ItemsOf(u);
  return std::binary_search(items.begin(), items.end(), i);
}

int32_t Dataset::NumActiveUsers() const {
  int32_t active = 0;
  for (UserId u = 0; u < num_users_; ++u) {
    if (NumItemsOf(u) > 0) ++active;
  }
  return active;
}

std::vector<int64_t> Dataset::ItemPopularity() const {
  std::vector<int64_t> pop(num_items_, 0);
  for (ItemId i : items_) ++pop[i];
  return pop;
}

Dataset Dataset::SliceItemRange(const Dataset& data, ItemId begin,
                                ItemId end) {
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= data.num_items_);
  Dataset out;
  out.num_users_ = data.num_users_;
  out.num_items_ = end - begin;
  out.offsets_.assign(1, 0);
  out.offsets_.reserve(static_cast<size_t>(data.num_users_) + 1);
  // Items are sorted per user, so each user's slice is one contiguous
  // subrange: record its bounds, then fill the item array allocated once at
  // its final size (a growing array would leave its discarded buffers
  // behind in the heap of a long-lived server).
  for (UserId u = 0; u < data.num_users_; ++u) {
    auto items = data.ItemsOf(u);
    out.offsets_.push_back(
        out.offsets_.back() +
        (std::lower_bound(items.begin(), items.end(), end) -
         std::lower_bound(items.begin(), items.end(), begin)));
  }
  out.items_.reserve(static_cast<size_t>(out.offsets_.back()));
  for (UserId u = 0; u < data.num_users_; ++u) {
    auto items = data.ItemsOf(u);
    for (auto it = std::lower_bound(items.begin(), items.end(), begin);
         it != items.end() && *it < end; ++it) {
      out.items_.push_back(*it - begin);
    }
  }
  return out;
}

std::string Dataset::Summary() const {
  std::ostringstream os;
  os << "Dataset(n=" << num_users_ << ", m=" << num_items_
     << ", |P|=" << num_interactions()
     << ", density=" << FormatDouble(Density() * 100.0, 3) << "%)";
  return os.str();
}

}  // namespace clapf

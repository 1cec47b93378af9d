#include "clapf/sampling/rank_list.h"

#include <algorithm>
#include <array>
#include <utility>

#include "clapf/util/logging.h"

namespace clapf {

namespace {

constexpr uint64_t kLowHalf = 0xffffffffull;
constexpr int kDigitBits = 8;
// The radix passes cover the keys' high half.
constexpr int kDigits = 32 / kDigitBits;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

size_t Digit(uint64_t element, int pass) {
  return static_cast<size_t>(element >> (32 + kDigitBits * pass)) &
         (kBuckets - 1);
}

}  // namespace

FactorRankList::FactorRankList(const FactorModel* model) : model_(model) {
  CLAPF_CHECK(model != nullptr);
  Refresh();
}

void FactorRankList::Refresh() {
  const size_t m = static_cast<size_t>(model_->num_items());
  const size_t d = static_cast<size_t>(model_->num_factors());
  // One transposed pass: item i's factor row becomes entry i of every key
  // column.
  keys_.resize(m * d);
  const double* factors = model_->item_factor_data().data();
  for (size_t i = 0; i < m; ++i) {
    const double* row = factors + i * d;
    for (size_t q = 0; q < d; ++q) {
      keys_[q * m + i] = DescendingKey(LoadRelaxed(row[q]));
    }
  }
  rankings_.resize(m * d);
  sort_a_.resize(m);
  sort_b_.resize(m);
  for (size_t q = 0; q < d; ++q) SortFactor(static_cast<int32_t>(q));
  ++refresh_count_;
}

void FactorRankList::SortFactor(int32_t q) {
  const size_t m = static_cast<size_t>(model_->num_items());
  if (m == 0) return;
  const uint64_t* key = keys_.data() + static_cast<size_t>(q) * m;
  // Elements carry the key's high half above the item id, so ascending
  // element order is (high half, id) order; they start in id order.
  uint64_t* src = sort_a_.data();
  uint64_t* dst = sort_b_.data();
  std::array<std::array<uint32_t, kBuckets>, kDigits> counts{};
  for (size_t i = 0; i < m; ++i) {
    const uint64_t e = (key[i] & ~kLowHalf) | i;
    src[i] = e;
    for (int p = 0; p < kDigits; ++p) ++counts[p][Digit(e, p)];
  }
  // Stable LSD passes over the high half, least significant digit first; a
  // digit that every element shares leaves the order as it is.
  for (int p = 0; p < kDigits; ++p) {
    auto& count = counts[p];
    if (count[Digit(src[0], p)] == m) continue;
    uint32_t offset = 0;
    for (uint32_t& c : count) offset += std::exchange(c, offset);
    for (size_t x = 0; x < m; ++x) {
      const uint64_t e = src[x];
      dst[count[Digit(e, p)]++] = e;
    }
    std::swap(src, dst);
  }
  // A run that ties on the high half is in id order. Unless its low halves
  // already ascend, sort it by (low half, id): O(r log r) for a run of r.
  const auto low = [key](uint64_t e) { return key[e & kLowHalf] & kLowHalf; };
  for (size_t x = 1; x < m; ++x) {
    if ((src[x] >> 32) != (src[x - 1] >> 32)) continue;
    const size_t s = x - 1;
    size_t e = x + 1;
    while (e < m && (src[e] >> 32) == (src[s] >> 32)) ++e;
    bool ascending = true;
    for (size_t y = s + 1; y < e; ++y) {
      ascending &= low(src[y - 1]) <= low(src[y]);
    }
    if (!ascending) {
      const uint64_t high = src[s] & ~kLowHalf;
      for (size_t y = s; y < e; ++y) {
        src[y] = low(src[y]) << 32 | (src[y] & kLowHalf);
      }
      std::sort(src + s, src + e);
      for (size_t y = s; y < e; ++y) src[y] = high | (src[y] & kLowHalf);
    }
    x = e;
  }
  ItemId* ranking = rankings_.data() + static_cast<size_t>(q) * m;
  for (size_t x = 0; x < m; ++x) {
    ranking[x] = static_cast<ItemId>(src[x] & kLowHalf);
  }
}

ItemId FactorRankList::ItemAt(int32_t q, size_t position, bool reversed) const {
  const size_t m = static_cast<size_t>(model_->num_items());
  CLAPF_DCHECK(position < m);
  return rankings_[static_cast<size_t>(q) * m +
                   (reversed ? m - 1 - position : position)];
}

}  // namespace clapf

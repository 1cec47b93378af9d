#ifndef CLAPF_SERVING_SHARD_MAP_H_
#define CLAPF_SERVING_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clapf/data/dataset.h"

namespace clapf {

/// Static partition of the item catalog into contiguous shards. Boundaries
/// are aligned to kPackedBlockItems (8) so every shard's packed snapshot
/// repacks whole SIMD blocks, and blocks are spread as evenly as possible
/// (the first `blocks % shards` shards get one extra block). The requested
/// shard count is clamped to [1, number of blocks] so no shard is ever
/// empty on a non-empty catalog.
///
/// The map is immutable after Create: scatter-gather serving, per-shard
/// publishes, and error attribution all key off the same boundaries.
class ShardMap {
 public:
  /// Single shard covering an empty catalog.
  ShardMap() : num_items_(0), bounds_{0, 0} {}

  /// Partitions `num_items` (>= 0) into `num_shards` contiguous ranges;
  /// `num_shards` is clamped to [1, ceil(num_items / 8)] (and to 1 on an
  /// empty catalog).
  static ShardMap Create(int32_t num_items, int32_t num_shards);

  int32_t num_shards() const {
    return static_cast<int32_t>(bounds_.size()) - 1;
  }
  int32_t num_items() const { return num_items_; }

  /// Half-open item range [begin(s), end(s)) owned by shard `s`.
  ItemId begin(int32_t shard) const {
    return bounds_[static_cast<size_t>(shard)];
  }
  ItemId end(int32_t shard) const {
    return bounds_[static_cast<size_t>(shard) + 1];
  }
  int32_t size(int32_t shard) const { return end(shard) - begin(shard); }

  /// The shard owning `item`; item must be in [0, num_items).
  int32_t ShardOfItem(ItemId item) const;

  /// "ShardMap(items=100, shards=3: [0,40) [40,72) [72,100))" for logs.
  std::string ToString() const;

 private:
  int32_t num_items_;
  std::vector<ItemId> bounds_;  // num_shards + 1 entries, bounds_[0] == 0
};

}  // namespace clapf

#endif  // CLAPF_SERVING_SHARD_MAP_H_

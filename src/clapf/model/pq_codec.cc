#include "clapf/model/pq_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "clapf/util/logging.h"
#include "clapf/util/thread_pool.h"

namespace clapf {
namespace {

int8_t EncodeValue(float x, float scale, float offset) {
  if (scale == 0.0f) return 0;
  const float q = std::nearbyint((x - offset) / scale);
  return static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, q)));
}

}  // namespace

PqCodeBook PqCodes::TrainBook(const PackedSnapshot& packed, int threads) {
  const int32_t lanes = packed.num_factors() + 1;
  PqCodeBook book;
  book.scale.assign(static_cast<size_t>(lanes), 0.0f);
  book.offset.assign(static_cast<size_t>(lanes), 0.0f);
  const int32_t n = packed.num_items();
  if (n == 0) return book;

  // Per-lane min/max over real items only: pad lanes of the tail block are
  // zero-filled and would otherwise widen (or pinch) the range for nothing.
  // One task per lane; min/max is associative so the split is free of
  // ordering effects and the book is bit-identical for any thread count.
  const float* blocks = packed.block_data();
  const std::size_t stride = packed.block_stride();
  ParallelForEach(lanes, threads, [&](int64_t lane) {
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (int32_t b = 0; b < packed.num_blocks(); ++b) {
      const float* strip = blocks + static_cast<std::size_t>(b) * stride +
                           static_cast<std::size_t>(lane) * kPackedBlockItems;
      const int32_t real =
          std::min<int32_t>(kPackedBlockItems, n - b * kPackedBlockItems);
      for (int32_t j = 0; j < real; ++j) {
        lo = std::min(lo, strip[j]);
        hi = std::max(hi, strip[j]);
      }
    }
    const float scale = (hi - lo) / 254.0f;
    book.scale[static_cast<size_t>(lane)] = scale;
    book.offset[static_cast<size_t>(lane)] =
        scale == 0.0f ? lo : lo + 127.0f * scale;
  });
  return book;
}

PqCodes PqCodes::Allocate(const PackedSnapshot& packed, PqCodeBook book) {
  PqCodes codes;
  codes.book_ = std::move(book);
  codes.num_items_ = packed.num_items();
  codes.num_factors_ = packed.num_factors();
  codes.num_blocks_ = packed.num_blocks();
  codes.block_stride_ = static_cast<std::size_t>(codes.num_factors_ + 1) *
                        kPackedBlockItems;
  CLAPF_CHECK(codes.book_.num_lanes() == codes.num_factors_ + 1);
  const std::size_t total =
      static_cast<std::size_t>(codes.num_blocks_) * codes.block_stride_;
  if (total > 0) {
    codes.codes_.reset(static_cast<int8_t*>(::operator new[](
        total, std::align_val_t(kPackedAlignment))));
    std::memset(codes.codes_.get(), 0, total);
  }
  // Loosest valid extrema: a bound built from ±127 can never prune a block
  // wrongly, so codes written after Allocate stay correct even before
  // RecomputeBlockBounds tightens them.
  const std::size_t bound_n =
      static_cast<std::size_t>(codes.num_bound_superblocks()) *
      codes.block_stride_;
  codes.bound_lane_min_.assign(bound_n, static_cast<int8_t>(-127));
  codes.bound_lane_max_.assign(bound_n, static_cast<int8_t>(127));
  return codes;
}

PqCodes PqCodes::Encode(const PackedSnapshot& packed, PqCodeBook book,
                        int threads) {
  PqCodes codes = Allocate(packed, std::move(book));
  ParallelForEach(codes.num_items_, threads, [&](int64_t local) {
    codes.EncodeItem(packed, static_cast<ItemId>(local));
  });
  codes.RecomputeBlockBounds(threads);
  return codes;
}

void PqCodes::RecomputeBlockBounds(int threads) {
  const int32_t lanes = num_factors_ + 1;
  ParallelForEach(num_bound_superblocks(), threads, [&](int64_t sb) {
    int8_t* mins = bound_lane_min_.data() +
                   static_cast<std::size_t>(sb) * block_stride_;
    int8_t* maxs = bound_lane_max_.data() +
                   static_cast<std::size_t>(sb) * block_stride_;
    for (int32_t j = 0; j < kPackedBlockItems; ++j) {
      const int32_t b = static_cast<int32_t>(sb) * kPackedBlockItems + j;
      if (b >= num_blocks_) {
        // Slot for a block past the catalog: zero, never consumed.
        for (int32_t l = 0; l < lanes; ++l) {
          mins[l * kPackedBlockItems + j] = 0;
          maxs[l * kPackedBlockItems + j] = 0;
        }
        continue;
      }
      const int8_t* blk =
          codes_.get() + static_cast<std::size_t>(b) * block_stride_;
      for (int32_t l = 0; l < lanes; ++l) {
        const int8_t* strip = blk + static_cast<std::size_t>(l) *
                                        kPackedBlockItems;
        int8_t lo = strip[0], hi = strip[0];
        for (int32_t i = 1; i < kPackedBlockItems; ++i) {
          lo = std::min(lo, strip[i]);
          hi = std::max(hi, strip[i]);
        }
        mins[l * kPackedBlockItems + j] = lo;
        maxs[l * kPackedBlockItems + j] = hi;
      }
    }
  });
}

void PqCodes::EncodeItem(const PackedSnapshot& packed, ItemId local) {
  const int32_t b = local / kPackedBlockItems;
  const int32_t j = local % kPackedBlockItems;
  const float* src = packed.block_data() +
                     static_cast<std::size_t>(b) * packed.block_stride();
  int8_t* dst = codes_.get() + static_cast<std::size_t>(b) * block_stride_;
  const int32_t lanes = num_factors_ + 1;
  for (int32_t l = 0; l < lanes; ++l) {
    dst[static_cast<std::size_t>(l) * kPackedBlockItems + j] =
        EncodeValue(src[static_cast<std::size_t>(l) * kPackedBlockItems + j],
                    book_.scale[static_cast<size_t>(l)],
                    book_.offset[static_cast<size_t>(l)]);
  }
}

void PqCodes::CopyItemFrom(const PqCodes& from, ItemId from_local,
                           ItemId to_local) {
  CLAPF_CHECK(from.num_factors_ == num_factors_);
  const int8_t* src =
      from.codes_.get() +
      static_cast<std::size_t>(from_local / kPackedBlockItems) *
          from.block_stride_;
  int8_t* dst = codes_.get() +
                static_cast<std::size_t>(to_local / kPackedBlockItems) *
                    block_stride_;
  const int32_t sj = from_local % kPackedBlockItems;
  const int32_t dj = to_local % kPackedBlockItems;
  const int32_t lanes = num_factors_ + 1;
  for (int32_t l = 0; l < lanes; ++l) {
    dst[static_cast<std::size_t>(l) * kPackedBlockItems + dj] =
        src[static_cast<std::size_t>(l) * kPackedBlockItems + sj];
  }
}

float PqCodes::DecodeLane(ItemId local, int32_t lane) const {
  const int8_t code =
      codes_[static_cast<std::size_t>(local / kPackedBlockItems) *
                 block_stride_ +
             static_cast<std::size_t>(lane) * kPackedBlockItems +
             local % kPackedBlockItems];
  return book_.offset[static_cast<size_t>(lane)] +
         book_.scale[static_cast<size_t>(lane)] * static_cast<float>(code);
}

Status PqCodes::VerifyGeometry(const PackedSnapshot& packed,
                               const std::string& context) const {
  if (num_items_ != packed.num_items() ||
      num_factors_ != packed.num_factors() ||
      num_blocks_ != packed.num_blocks() ||
      block_stride_ != static_cast<std::size_t>(num_factors_ + 1) *
                           kPackedBlockItems) {
    return Status::Corruption(context +
                              ": pq code geometry disagrees with the packed "
                              "snapshot");
  }
  if (book_.num_lanes() != num_factors_ + 1 ||
      book_.offset.size() != book_.scale.size()) {
    return Status::Corruption(context + ": pq code book lane count broken");
  }
  if (num_blocks_ > 0 && codes_ == nullptr) {
    return Status::Corruption(context + ": pq code storage missing");
  }
  return Status::OK();
}

void PqCodes::CorruptForTesting(uint64_t seed) {
  const std::size_t total =
      static_cast<std::size_t>(num_blocks_) * block_stride_;
  uint64_t state = seed | 1;
  for (std::size_t i = 0; i < total; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    codes_[i] = static_cast<int8_t>(codes_[i] ^
                                    static_cast<int8_t>(state >> 57));
  }
}

void PqCodes::CopyFrom(const PqCodes& other) {
  book_ = other.book_;
  bound_lane_min_ = other.bound_lane_min_;
  bound_lane_max_ = other.bound_lane_max_;
  num_items_ = other.num_items_;
  num_factors_ = other.num_factors_;
  num_blocks_ = other.num_blocks_;
  block_stride_ = other.block_stride_;
  const std::size_t total =
      static_cast<std::size_t>(num_blocks_) * block_stride_;
  if (total > 0 && other.codes_ != nullptr) {
    codes_.reset(static_cast<int8_t*>(::operator new[](
        total, std::align_val_t(kPackedAlignment))));
    std::memcpy(codes_.get(), other.codes_.get(), total);
  } else {
    codes_.reset();
  }
}

float PqPrepareQuery(const PqCodeBook& book, const float* user_factors,
                     int32_t num_factors, float* lane_weights) {
  lane_weights[0] = book.scale[0];
  float base = book.offset[0];
  for (int32_t f = 0; f < num_factors; ++f) {
    lane_weights[1 + f] = user_factors[f] * book.scale[static_cast<size_t>(1 + f)];
    base += user_factors[f] * book.offset[static_cast<size_t>(1 + f)];
  }
  return base;
}

}  // namespace clapf

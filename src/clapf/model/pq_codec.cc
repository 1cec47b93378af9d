#include "clapf/model/pq_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "clapf/model/score_kernel.h"
#include "clapf/util/logging.h"
#include "clapf/util/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CLAPF_PQ_CODEC_X86 1
#endif

namespace clapf {
namespace {

int8_t EncodeValue(float x, float scale, float offset) {
  if (scale == 0.0f) return 0;
  const float q = std::nearbyint((x - offset) / scale);
  return static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, q)));
}

// Encodes one block: `lanes` strips of kPackedBlockItems floats at `src`
// into the same strips of codes at `dst`. Slots at and past `real` are the
// tail block's pads and get code 0. Every byte of the block is written.
// lane_min[l * kPackedBlockItems] / lane_max[...] receive the extrema of
// lane l's 8 codes, pads included.
using EncodeBlockFn = void (*)(const float* src, int32_t lanes,
                               const float* scale, const float* offset,
                               int32_t real, int8_t* dst, int8_t* lane_min,
                               int8_t* lane_max);

void EncodeBlockPortable(const float* src, int32_t lanes, const float* scale,
                         const float* offset, int32_t real, int8_t* dst,
                         int8_t* lane_min, int8_t* lane_max) {
  for (int32_t l = 0; l < lanes; ++l) {
    const std::size_t at = static_cast<std::size_t>(l) * kPackedBlockItems;
    int8_t lo = 127, hi = -128;
    for (int32_t j = 0; j < kPackedBlockItems; ++j) {
      const int8_t code =
          j < real ? EncodeValue(src[at + j], scale[l], offset[l]) : 0;
      dst[at + j] = code;
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
    lane_min[at] = lo;
    lane_max[at] = hi;
  }
}

#ifdef CLAPF_PQ_CODEC_X86
// EncodeValue on 8 lanes at once, bit for bit: the same subtraction and
// division, _mm256_round_ps under the current rounding mode (what
// nearbyint does), and the clamp in std::min/std::max's operand order —
// MINPS/MAXPS return their second operand when the first is NaN, so a NaN
// quotient clamps to 127 as (std::min(127.f, NaN) == 127.f) does. No FMA:
// nothing here multiplies.
__attribute__((target("avx2"))) void EncodeBlockAvx2(
    const float* src, int32_t lanes, const float* scale, const float* offset,
    int32_t real, int8_t* dst, int8_t* lane_min, int8_t* lane_max) {
  const __m256i slot = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i keep = _mm256_cmpgt_epi32(_mm256_set1_epi32(real), slot);
  const __m256 hi127 = _mm256_set1_ps(127.0f);
  const __m256 lo127 = _mm256_set1_ps(-127.0f);
  for (int32_t l = 0; l < lanes; ++l) {
    const std::size_t at = static_cast<std::size_t>(l) * kPackedBlockItems;
    __m128i bytes = _mm_setzero_si128();
    if (scale[l] != 0.0f) {
      const __m256 x = _mm256_loadu_ps(src + at);
      __m256 q = _mm256_div_ps(_mm256_sub_ps(x, _mm256_set1_ps(offset[l])),
                               _mm256_set1_ps(scale[l]));
      q = _mm256_round_ps(q, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
      q = _mm256_max_ps(_mm256_min_ps(q, hi127), lo127);
      const __m256i codes =
          _mm256_and_si256(_mm256_cvttps_epi32(q), keep);
      const __m128i words =
          _mm_packs_epi32(_mm256_castsi256_si128(codes),
                          _mm256_extracti128_si256(codes, 1));
      bytes = _mm_packs_epi16(words, words);
    }
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + at), bytes);
    // Bytes 8..15 repeat 0..7, so three halving steps leave the extrema
    // of the 8 codes in byte 0.
    __m128i lo = _mm_min_epi8(bytes, _mm_srli_si128(bytes, 4));
    __m128i hi = _mm_max_epi8(bytes, _mm_srli_si128(bytes, 4));
    lo = _mm_min_epi8(lo, _mm_srli_si128(lo, 2));
    hi = _mm_max_epi8(hi, _mm_srli_si128(hi, 2));
    lo = _mm_min_epi8(lo, _mm_srli_si128(lo, 1));
    hi = _mm_max_epi8(hi, _mm_srli_si128(hi, 1));
    lane_min[at] = static_cast<int8_t>(_mm_cvtsi128_si32(lo));
    lane_max[at] = static_cast<int8_t>(_mm_cvtsi128_si32(hi));
  }
}
#endif  // CLAPF_PQ_CODEC_X86

EncodeBlockFn ActiveEncodeBlockFn() {
#ifdef CLAPF_PQ_CODEC_X86
  if (ActiveScoreKernel() == ScoreKernel::kAvx2) return EncodeBlockAvx2;
#endif
  return EncodeBlockPortable;
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

PqCodes PqCodes::Encode(const PackedSnapshot& packed, PqCodeBook book,
                        int threads) {
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
    // Not zeroed here: the workers write every byte of their blocks, so
    // each faults in its own pages.
    codes.codes_.reset(static_cast<int8_t*>(::operator new[](
        total, std::align_val_t(kPackedAlignment))));
  }
  const std::size_t bound_n =
      static_cast<std::size_t>(codes.num_bound_superblocks()) *
      codes.block_stride_;
  codes.bound_lane_min_.resize(bound_n);
  codes.bound_lane_max_.resize(bound_n);

  // One task per bound superblock: its kPackedBlockItems blocks are encoded
  // and their extrema land in the superblock's strips in the same pass.
  // Each code is a pure function of (float, scale, offset), so the bytes do
  // not depend on `threads` or on the kernel.
  const EncodeBlockFn encode = ActiveEncodeBlockFn();
  const int32_t lanes = codes.num_factors_ + 1;
  const std::size_t stride = codes.block_stride_;
  ParallelForEach(codes.num_bound_superblocks(), threads, [&](int64_t sb) {
    int8_t* mins = codes.bound_lane_min_.data() +
                   static_cast<std::size_t>(sb) * stride;
    int8_t* maxs = codes.bound_lane_max_.data() +
                   static_cast<std::size_t>(sb) * stride;
    for (int32_t j = 0; j < kPackedBlockItems; ++j) {
      const int32_t b = static_cast<int32_t>(sb) * kPackedBlockItems + j;
      if (b >= codes.num_blocks_) {
        // Slot for a block past the catalog: zero, never consumed.
        for (int32_t l = 0; l < lanes; ++l) {
          mins[l * kPackedBlockItems + j] = 0;
          maxs[l * kPackedBlockItems + j] = 0;
        }
        continue;
      }
      encode(packed.block_data() + static_cast<std::size_t>(b) *
                                       packed.block_stride(),
             lanes, codes.book_.scale.data(), codes.book_.offset.data(),
             std::min(kPackedBlockItems,
                      codes.num_items_ - b * kPackedBlockItems),
             codes.codes_.get() + static_cast<std::size_t>(b) * stride,
             mins + j, maxs + j);
    }
  });
  return codes;
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

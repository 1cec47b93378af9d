#include "clapf/model/score_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "clapf/util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CLAPF_SCORE_KERNEL_X86 1
#endif

namespace clapf {
namespace {

using KernelFn = void (*)(const float* user, int32_t num_factors,
                          const float* blocks, std::size_t stride,
                          int32_t num_blocks, float* out);

// Branch-free blocked kernel: each block's accumulators start from the bias
// lane (zeros when the model has no bias — layout, not a branch, handles it)
// and the factor loop walks contiguous 8-float strips. The 8 lanes are
// split into two 4-wide halves so SSE2-level auto-vectorization maps each
// half onto one vector register without peeling.
void ScoreBlocksPortable(const float* user, int32_t num_factors,
                         const float* blocks, std::size_t stride,
                         int32_t num_blocks, float* out) {
  for (int32_t b = 0; b < num_blocks; ++b) {
    const float* blk = blocks + static_cast<std::size_t>(b) * stride;
    float lo[4], hi[4];
    for (int l = 0; l < 4; ++l) {
      lo[l] = blk[l];
      hi[l] = blk[4 + l];
    }
    for (int32_t f = 0; f < num_factors; ++f) {
      const float uf = user[f];
      const float* strip =
          blk + static_cast<std::size_t>(f + 1) * kPackedBlockItems;
      for (int l = 0; l < 4; ++l) lo[l] += uf * strip[l];
      for (int l = 0; l < 4; ++l) hi[l] += uf * strip[4 + l];
    }
    float* dst = out + static_cast<std::size_t>(b) * kPackedBlockItems;
    for (int l = 0; l < 4; ++l) {
      dst[l] = lo[l];
      dst[4 + l] = hi[l];
    }
  }
}

#ifdef CLAPF_SCORE_KERNEL_X86
// AVX2/FMA specialization: one 256-bit register scores a whole block, and
// two blocks run interleaved so the FMA chains of one hide the latency of
// the other. Compiled with a target attribute so the rest of the binary
// stays baseline x86-64; only runtime dispatch can reach it.
__attribute__((target("avx2,fma"))) void ScoreBlocksAvx2(
    const float* user, int32_t num_factors, const float* blocks,
    std::size_t stride, int32_t num_blocks, float* out) {
  int32_t b = 0;
  for (; b + 1 < num_blocks; b += 2) {
    const float* b0 = blocks + static_cast<std::size_t>(b) * stride;
    const float* b1 = b0 + stride;
    __m256 acc0 = _mm256_load_ps(b0);  // bias lanes
    __m256 acc1 = _mm256_load_ps(b1);
    for (int32_t f = 0; f < num_factors; ++f) {
      const __m256 uf = _mm256_set1_ps(user[f]);
      const std::size_t off = static_cast<std::size_t>(f + 1) *
                              kPackedBlockItems;
      acc0 = _mm256_fmadd_ps(uf, _mm256_load_ps(b0 + off), acc0);
      acc1 = _mm256_fmadd_ps(uf, _mm256_load_ps(b1 + off), acc1);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc0);
    _mm256_storeu_ps(
        out + static_cast<std::size_t>(b + 1) * kPackedBlockItems, acc1);
  }
  if (b < num_blocks) {
    const float* blk = blocks + static_cast<std::size_t>(b) * stride;
    __m256 acc = _mm256_load_ps(blk);
    for (int32_t f = 0; f < num_factors; ++f) {
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(user[f]),
          _mm256_load_ps(blk + static_cast<std::size_t>(f + 1) *
                                   kPackedBlockItems),
          acc);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc);
  }
}
#endif  // CLAPF_SCORE_KERNEL_X86

using PqKernelFn = void (*)(const int8_t* codes, std::size_t stride,
                            int32_t num_factors, const float* lane_weights,
                            float base, int32_t num_blocks, float* out);

// Portable quantized kernel: same blocked shape as the float kernel, with
// each int8 code widened to float and scaled by the per-query lane weight.
// The per-query constant `base` seeds every accumulator so quantized scores
// land on the exact-score axis (uniform shift — never changes the ranking).
void PqScoreBlocksPortable(const int8_t* codes, std::size_t stride,
                           int32_t num_factors, const float* lane_weights,
                           float base, int32_t num_blocks, float* out) {
  const int32_t lanes = num_factors + 1;
  for (int32_t b = 0; b < num_blocks; ++b) {
    const int8_t* blk = codes + static_cast<std::size_t>(b) * stride;
    float lo[4], hi[4];
    for (int l = 0; l < 4; ++l) {
      lo[l] = base;
      hi[l] = base;
    }
    for (int32_t f = 0; f < lanes; ++f) {
      const float w = lane_weights[f];
      const int8_t* strip =
          blk + static_cast<std::size_t>(f) * kPackedBlockItems;
      for (int l = 0; l < 4; ++l) lo[l] += w * static_cast<float>(strip[l]);
      for (int l = 0; l < 4; ++l) {
        hi[l] += w * static_cast<float>(strip[4 + l]);
      }
    }
    float* dst = out + static_cast<std::size_t>(b) * kPackedBlockItems;
    for (int l = 0; l < 4; ++l) {
      dst[l] = lo[l];
      dst[4 + l] = hi[l];
    }
  }
}

#ifdef CLAPF_SCORE_KERNEL_X86
// AVX2/FMA quantized kernel: one 64-bit load brings in a whole block's lane
// strip, sign-extends to epi32, converts to floats, and FMAs against the
// broadcast lane weight — 8 items per instruction at a quarter of the float
// kernel's memory traffic. Two blocks interleave to hide FMA latency, like
// the float kernel.
__attribute__((target("avx2,fma"))) void PqScoreBlocksAvx2(
    const int8_t* codes, std::size_t stride, int32_t num_factors,
    const float* lane_weights, float base, int32_t num_blocks, float* out) {
  const int32_t lanes = num_factors + 1;
  const __m256 vbase = _mm256_set1_ps(base);
  int32_t b = 0;
  for (; b + 1 < num_blocks; b += 2) {
    const int8_t* b0 = codes + static_cast<std::size_t>(b) * stride;
    const int8_t* b1 = b0 + stride;
    __m256 acc0 = vbase;
    __m256 acc1 = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 w = _mm256_set1_ps(lane_weights[f]);
      const std::size_t off = static_cast<std::size_t>(f) * kPackedBlockItems;
      const __m256 c0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + off))));
      const __m256 c1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b1 + off))));
      acc0 = _mm256_fmadd_ps(w, c0, acc0);
      acc1 = _mm256_fmadd_ps(w, c1, acc1);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc0);
    _mm256_storeu_ps(
        out + static_cast<std::size_t>(b + 1) * kPackedBlockItems, acc1);
  }
  if (b < num_blocks) {
    const int8_t* blk = codes + static_cast<std::size_t>(b) * stride;
    __m256 acc = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              blk + static_cast<std::size_t>(f) * kPackedBlockItems))));
      acc = _mm256_fmadd_ps(_mm256_set1_ps(lane_weights[f]), c, acc);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc);
  }
}
#endif  // CLAPF_SCORE_KERNEL_X86

using PqBoundFn = void (*)(const int8_t* const* lane_src, std::size_t stride,
                           int32_t num_factors, const float* lane_weights,
                           float base, int32_t num_blocks, float* out);

// Portable bound kernel: PqScoreBlocksPortable with each lane strip read
// from its own source array. The accumulation chain per output slot is
// identical, which is what makes the result a bit-exact corner bound.
void PqScoreBoundBlocksPortable(const int8_t* const* lane_src,
                                std::size_t stride, int32_t num_factors,
                                const float* lane_weights, float base,
                                int32_t num_blocks, float* out) {
  const int32_t lanes = num_factors + 1;
  for (int32_t b = 0; b < num_blocks; ++b) {
    float lo[4], hi[4];
    for (int l = 0; l < 4; ++l) {
      lo[l] = base;
      hi[l] = base;
    }
    for (int32_t f = 0; f < lanes; ++f) {
      const float w = lane_weights[f];
      const int8_t* strip = lane_src[f] +
                            static_cast<std::size_t>(b) * stride +
                            static_cast<std::size_t>(f) * kPackedBlockItems;
      for (int l = 0; l < 4; ++l) lo[l] += w * static_cast<float>(strip[l]);
      for (int l = 0; l < 4; ++l) {
        hi[l] += w * static_cast<float>(strip[4 + l]);
      }
    }
    float* dst = out + static_cast<std::size_t>(b) * kPackedBlockItems;
    for (int l = 0; l < 4; ++l) {
      dst[l] = lo[l];
      dst[4 + l] = hi[l];
    }
  }
}

#ifdef CLAPF_SCORE_KERNEL_X86
// AVX2/FMA bound kernel: PqScoreBlocksAvx2's recurrence with per-lane
// source arrays; same two-block interleave, same chain, bit-equal outputs.
__attribute__((target("avx2,fma"))) void PqScoreBoundBlocksAvx2(
    const int8_t* const* lane_src, std::size_t stride, int32_t num_factors,
    const float* lane_weights, float base, int32_t num_blocks, float* out) {
  const int32_t lanes = num_factors + 1;
  const __m256 vbase = _mm256_set1_ps(base);
  int32_t b = 0;
  for (; b + 1 < num_blocks; b += 2) {
    const std::size_t off0 = static_cast<std::size_t>(b) * stride;
    __m256 acc0 = vbase;
    __m256 acc1 = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 w = _mm256_set1_ps(lane_weights[f]);
      const int8_t* strip = lane_src[f] + off0 +
                            static_cast<std::size_t>(f) * kPackedBlockItems;
      const __m256 c0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(strip))));
      const __m256 c1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(
              reinterpret_cast<const __m128i*>(strip + stride))));
      acc0 = _mm256_fmadd_ps(w, c0, acc0);
      acc1 = _mm256_fmadd_ps(w, c1, acc1);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc0);
    _mm256_storeu_ps(
        out + static_cast<std::size_t>(b + 1) * kPackedBlockItems, acc1);
  }
  if (b < num_blocks) {
    __m256 acc = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              lane_src[f] + static_cast<std::size_t>(b) * stride +
              static_cast<std::size_t>(f) * kPackedBlockItems))));
      acc = _mm256_fmadd_ps(_mm256_set1_ps(lane_weights[f]), c, acc);
    }
    _mm256_storeu_ps(out + static_cast<std::size_t>(b) * kPackedBlockItems,
                     acc);
  }
}
#endif  // CLAPF_SCORE_KERNEL_X86

PqBoundFn PqBoundFor(ScoreKernel kernel) {
#ifdef CLAPF_SCORE_KERNEL_X86
  if (kernel == ScoreKernel::kAvx2) return PqScoreBoundBlocksAvx2;
#else
  CLAPF_CHECK(kernel != ScoreKernel::kAvx2);
#endif
  return PqScoreBoundBlocksPortable;
}

using PqCollectFn = void (*)(const int8_t* codes, std::size_t stride,
                             int32_t num_factors, const float* lane_weights,
                             float base, ItemId begin, ItemId end, float bar,
                             std::vector<uint64_t>* out);

// Lane mask for a (possibly partial) tail block starting at id0: pad slots
// past `end` must never be emitted, whatever their pad codes score.
uint32_t PqKeepMask(ItemId id0, ItemId end) {
  const ItemId n = end - id0;
  return n >= kPackedBlockItems ? 0xffu
                                : ((1u << static_cast<uint32_t>(n)) - 1u);
}

// Portable fused scan+filter: score one block at a time through the
// portable quantized kernel, then append the slots at or above the bar.
void PqCollectPortable(const int8_t* codes, std::size_t stride,
                       int32_t num_factors, const float* lane_weights,
                       float base, ItemId begin, ItemId end, float bar,
                       std::vector<uint64_t>* out) {
  float tmp[kPackedBlockItems];
  const int32_t first_block = begin / kPackedBlockItems;
  const int32_t last_block = (end - 1) / kPackedBlockItems;
  for (int32_t b = first_block; b <= last_block; ++b) {
    PqScoreBlocksPortable(codes + static_cast<std::size_t>(b) * stride,
                          stride, num_factors, lane_weights, base, 1, tmp);
    const ItemId id0 = b * kPackedBlockItems;
    const ItemId hi = std::min<ItemId>(end, id0 + kPackedBlockItems);
    for (ItemId i = id0; i < hi; ++i) {
      const float s = tmp[i - id0];
      if (s >= bar) out->push_back(PqPackCandidate(s, i));
    }
  }
}

#ifdef CLAPF_SCORE_KERNEL_X86
// Appends the masked-in lanes of one scored block that reach the bar. The
// compare and movemask happen on the accumulator register; the store to
// `tmp` is only paid when at least one lane passes — with a converged bar
// almost every block exits on `mask == 0`.
__attribute__((target("avx2,fma"))) inline void PqEmitAbove(
    __m256 scores, __m256 vbar, ItemId id0, uint32_t keep_mask,
    std::vector<uint64_t>* out) {
  uint32_t mask = static_cast<uint32_t>(_mm256_movemask_ps(
                      _mm256_cmp_ps(scores, vbar, _CMP_GE_OQ))) &
                  keep_mask;
  if (mask == 0) return;
  alignas(32) float tmp[kPackedBlockItems];
  _mm256_store_ps(tmp, scores);
  while (mask != 0) {
    const int j = __builtin_ctz(mask);
    mask &= mask - 1;
    out->push_back(PqPackCandidate(tmp[j], id0 + j));
  }
}

// AVX2 fused scan+filter: the same two-block-interleaved int8 recurrence as
// PqScoreBlocksAvx2, but scores never leave registers unless they pass the
// bar.
__attribute__((target("avx2,fma"))) void PqCollectAvx2(
    const int8_t* codes, std::size_t stride, int32_t num_factors,
    const float* lane_weights, float base, ItemId begin, ItemId end,
    float bar, std::vector<uint64_t>* out) {
  const int32_t lanes = num_factors + 1;
  const __m256 vbase = _mm256_set1_ps(base);
  const __m256 vbar = _mm256_set1_ps(bar);
  const int32_t first_block = begin / kPackedBlockItems;
  const int32_t last_block = (end - 1) / kPackedBlockItems;
  int32_t b = first_block;
  for (; b + 1 <= last_block; b += 2) {
    const int8_t* b0 = codes + static_cast<std::size_t>(b) * stride;
    const int8_t* b1 = b0 + stride;
    __m256 acc0 = vbase;
    __m256 acc1 = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 w = _mm256_set1_ps(lane_weights[f]);
      const std::size_t off = static_cast<std::size_t>(f) * kPackedBlockItems;
      const __m256 c0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b0 + off))));
      const __m256 c1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b1 + off))));
      acc0 = _mm256_fmadd_ps(w, c0, acc0);
      acc1 = _mm256_fmadd_ps(w, c1, acc1);
    }
    PqEmitAbove(acc0, vbar, b * kPackedBlockItems,
                PqKeepMask(b * kPackedBlockItems, end), out);
    PqEmitAbove(acc1, vbar, (b + 1) * kPackedBlockItems,
                PqKeepMask((b + 1) * kPackedBlockItems, end), out);
  }
  if (b <= last_block) {
    const int8_t* blk = codes + static_cast<std::size_t>(b) * stride;
    __m256 acc = vbase;
    for (int32_t f = 0; f < lanes; ++f) {
      const __m256 c = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              blk + static_cast<std::size_t>(f) * kPackedBlockItems))));
      acc = _mm256_fmadd_ps(_mm256_set1_ps(lane_weights[f]), c, acc);
    }
    PqEmitAbove(acc, vbar, b * kPackedBlockItems,
                PqKeepMask(b * kPackedBlockItems, end), out);
  }
}
#endif  // CLAPF_SCORE_KERNEL_X86

PqCollectFn PqCollectFor(ScoreKernel kernel) {
#ifdef CLAPF_SCORE_KERNEL_X86
  if (kernel == ScoreKernel::kAvx2) return PqCollectAvx2;
#else
  CLAPF_CHECK(kernel != ScoreKernel::kAvx2);
#endif
  return PqCollectPortable;
}

bool CpuHasAvx2Fma() {
#ifdef CLAPF_SCORE_KERNEL_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// -1 = auto dispatch; otherwise the forced ScoreKernel value.
std::atomic<int> g_forced_kernel{-1};

KernelFn KernelFor(ScoreKernel kernel) {
#ifdef CLAPF_SCORE_KERNEL_X86
  if (kernel == ScoreKernel::kAvx2) return ScoreBlocksAvx2;
#else
  CLAPF_CHECK(kernel != ScoreKernel::kAvx2);
#endif
  return ScoreBlocksPortable;
}

PqKernelFn PqKernelFor(ScoreKernel kernel) {
#ifdef CLAPF_SCORE_KERNEL_X86
  if (kernel == ScoreKernel::kAvx2) return PqScoreBlocksAvx2;
#else
  CLAPF_CHECK(kernel != ScoreKernel::kAvx2);
#endif
  return PqScoreBlocksPortable;
}

}  // namespace

const char* ScoreKernelName(ScoreKernel kernel) {
  switch (kernel) {
    case ScoreKernel::kPortable:
      return "portable";
    case ScoreKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ScoreKernelSupported(ScoreKernel kernel) {
  return kernel == ScoreKernel::kPortable || CpuHasAvx2Fma();
}

ScoreKernel ActiveScoreKernel() {
  const int forced = g_forced_kernel.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<ScoreKernel>(forced);
  return CpuHasAvx2Fma() ? ScoreKernel::kAvx2 : ScoreKernel::kPortable;
}

void ForceScoreKernel(ScoreKernel kernel) {
  CLAPF_CHECK(ScoreKernelSupported(kernel))
      << "cannot force unsupported score kernel " << ScoreKernelName(kernel);
  g_forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void ClearScoreKernelOverride() {
  g_forced_kernel.store(-1, std::memory_order_relaxed);
}

void ScoreBlocks(const PackedSnapshot& snap, UserId u, int32_t first_block,
                 int32_t num_blocks, float* out) {
  CLAPF_CHECK(first_block >= 0 && num_blocks >= 0 &&
              first_block + num_blocks <= snap.num_blocks());
  const float* user = snap.user_factors(u);
  const float* blocks =
      snap.block_data() +
      static_cast<std::size_t>(first_block) * snap.block_stride();
  KernelFor(ActiveScoreKernel())(user, snap.num_factors(), blocks,
                                 snap.block_stride(), num_blocks, out);
}

namespace {

// The one fused float scan behind ScoreBlocksTopK and ScoreBlocksTopKMapped.
// Score a cache-resident chunk of blocks, then run the scalar filter
// (exclusions + threshold early-reject) over it; an item is excluded and
// pushed under its global id, local_to_global[i] when kMapped and i itself
// otherwise, so neither instantiation carries a branch for the map. The
// reject test uses strict less-than: a score tying the current threshold
// must still go through Push so the smaller-item-id tie-break is applied
// exactly.
template <bool kMapped>
void ScoreBlocksTopKBody(const PackedSnapshot& snap, UserId u, ItemId begin,
                         ItemId end, const int32_t* local_to_global,
                         const std::vector<bool>* excluded,
                         TopKAccumulator* acc, double reject_below) {
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= snap.num_items());
  CLAPF_CHECK(begin % kPackedBlockItems == 0);
  if (begin == end) return;

  constexpr int32_t kChunkBlocks = 64;
  float buf[kChunkBlocks * kPackedBlockItems];

  const int32_t last_block = (end - 1) / kPackedBlockItems;
  for (int32_t b = begin / kPackedBlockItems; b <= last_block;
       b += kChunkBlocks) {
    const int32_t nblocks = std::min(kChunkBlocks, last_block - b + 1);
    ScoreBlocks(snap, u, b, nblocks, buf);
    const ItemId lo = b * kPackedBlockItems;
    const ItemId hi =
        std::min<ItemId>(end, lo + nblocks * kPackedBlockItems);
    for (ItemId i = lo; i < hi; ++i) {
      ItemId g = i;
      if constexpr (kMapped) g = local_to_global[static_cast<std::size_t>(i)];
      if (excluded != nullptr && (*excluded)[static_cast<std::size_t>(g)]) {
        continue;
      }
      const double s = static_cast<double>(buf[i - lo]);
      if (s < reject_below) continue;
      if (acc->full() && s < acc->threshold_score()) continue;
      acc->Push(g, s);
    }
  }
}

}  // namespace

void ScoreBlocksTopK(const PackedSnapshot& snap, UserId u, ItemId begin,
                     ItemId end, const std::vector<bool>* excluded,
                     TopKAccumulator* acc, double reject_below) {
  ScoreBlocksTopKBody<false>(snap, u, begin, end, nullptr, excluded, acc,
                             reject_below);
}

void ScoreBlocksTopKMapped(const PackedSnapshot& snap, UserId u, ItemId begin,
                           ItemId end, const int32_t* local_to_global,
                           const std::vector<bool>* excluded,
                           TopKAccumulator* acc, double reject_below) {
  ScoreBlocksTopKBody<true>(snap, u, begin, end, local_to_global, excluded,
                            acc, reject_below);
}

void PqScoreBlocks(const int8_t* codes, std::size_t code_stride,
                   int32_t num_factors, const float* lane_weights, float base,
                   int32_t first_block, int32_t num_blocks, float* out) {
  CLAPF_CHECK(first_block >= 0 && num_blocks >= 0);
  PqKernelFor(ActiveScoreKernel())(
      codes + static_cast<std::size_t>(first_block) * code_stride,
      code_stride, num_factors, lane_weights, base, num_blocks, out);
}

void PqScoreBoundBlocks(const int8_t* const* lane_src,
                        std::size_t code_stride, int32_t num_factors,
                        const float* lane_weights, float base,
                        int32_t first_block, int32_t num_blocks, float* out) {
  CLAPF_CHECK(first_block >= 0 && num_blocks >= 0);
  // Offset each lane pointer by the first block once; the kernels index
  // from block 0 of whatever they are handed.
  constexpr int32_t kMaxStackLanes = 257;
  const int32_t lanes = num_factors + 1;
  CLAPF_CHECK(lanes <= kMaxStackLanes);
  const int8_t* shifted[kMaxStackLanes];
  for (int32_t l = 0; l < lanes; ++l) {
    shifted[l] =
        lane_src[l] + static_cast<std::size_t>(first_block) * code_stride;
  }
  PqBoundFor(ActiveScoreKernel())(shifted, code_stride, num_factors,
                                  lane_weights, base, num_blocks, out);
}

void PqScoreCollect(const int8_t* codes, std::size_t code_stride,
                    int32_t num_factors, const float* lane_weights,
                    float base, ItemId begin, ItemId end, float bar,
                    std::vector<uint64_t>* out) {
  CLAPF_CHECK(begin >= 0 && begin <= end);
  CLAPF_CHECK(begin % kPackedBlockItems == 0);
  if (begin == end) return;
  PqCollectFor(ActiveScoreKernel())(codes, code_stride, num_factors,
                                    lane_weights, base, begin, end, bar, out);
}

}  // namespace clapf

#ifndef CLAPF_MODEL_PQ_CODEC_H_
#define CLAPF_MODEL_PQ_CODEC_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "clapf/model/packed_snapshot.h"
#include "clapf/util/status.h"

namespace clapf {

/// Per-lane affine code book for the quantized first-pass score path. Lane 0
/// is the bias strip and lanes 1..d are the factor strips of the packed
/// block layout; a stored code q ∈ [-127, 127] dequantizes as
///
///   x̂ = offset[l] + scale[l] · q
///
/// with scale = (max − min) / 254 and offset = min + 127·scale taken from the
/// per-lane min/max over the *real* items of the snapshot the codes were
/// trained on. A degenerate lane (max == min, e.g. the bias strip of a
/// bias-less model) gets scale 0 and dequantizes exactly. The book is frozen
/// across incremental rebuilds: every item re-encodes against it, and a code
/// is a pure function of (float, scale, offset), so clean items' codes stay
/// bit-identical publish over publish.
///
/// Why per-lane scalar int8 rather than per-subspace PQ: at serving factor
/// counts (d ≤ 64) a code book lookup table per subspace costs more bytes
/// per scanned item than the 1-byte-per-lane scalar codes, and on the
/// clustered 1M-item bench the scalar codes already push the composed
/// recall@10 past the 0.95 contract at a 4× bandwidth reduction — the LUT
/// machinery buys nothing the gate can measure. The "pq" surface name covers
/// the compressed first-pass feature, whichever codec backs it.
struct PqCodeBook {
  std::vector<float> scale;
  std::vector<float> offset;

  /// Lanes covered (num_factors + 1, lane 0 = bias), 0 when untrained.
  int32_t num_lanes() const { return static_cast<int32_t>(scale.size()); }
};

/// Block-aligned int8 codes mirroring a PackedSnapshot's geometry: blocks of
/// kPackedBlockItems items in SoA order with one byte per (lane, item) —
///
///   block b (items [8b, 8b+8), stride (d+1)·8 bytes):
///     [ 8 bias codes ][ 8 f0 codes ] ... [ 8 f_{d-1} codes ]
///
/// — so a probe range is one contiguous streamed scan at a quarter of the
/// float32 bandwidth, with the same 64-byte block alignment the float
/// kernels rely on. Pad lanes of the tail block encode as code 0 and are
/// never consumed (every scan bounds against num_items). Immutable after
/// Encode and safe to share read-only across query threads; IvfIndex owns
/// one per index, built right after the cluster-ordered repack so codes and
/// permuted floats describe the same local item order.
class PqCodes {
 public:
  PqCodes() = default;
  PqCodes(PqCodes&&) = default;
  PqCodes& operator=(PqCodes&&) = default;
  PqCodes(const PqCodes& other) { CopyFrom(other); }
  PqCodes& operator=(const PqCodes& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Trains the per-lane affine book from `packed` (one pass, per-lane
  /// min/max over real items). Deterministic for any `threads`: lanes are
  /// reduced independently and min/max is order-independent.
  static PqCodeBook TrainBook(const PackedSnapshot& packed, int threads);

  /// Allocates codes matching `packed`'s geometry under `book` and encodes
  /// every item, block by block: each of `threads` workers writes every
  /// byte of its blocks (pad slots as 0) and folds their per-lane extrema
  /// into the bound superblocks in the same pass. Runs the AVX2 encoder
  /// when ActiveScoreKernel() is kAvx2, the portable one otherwise; a code
  /// is round-to-nearest((x − offset) / scale) clamped to ±127 under the
  /// current rounding mode, so the bytes are identical for any kernel and
  /// any `threads`.
  static PqCodes Encode(const PackedSnapshot& packed, PqCodeBook book,
                        int threads);

  int32_t num_items() const { return num_items_; }
  int32_t num_factors() const { return num_factors_; }
  int32_t num_blocks() const { return num_blocks_; }

  /// Bytes per block: (num_factors + 1) * kPackedBlockItems.
  std::size_t block_stride() const { return block_stride_; }

  /// The aligned code array, num_blocks() * block_stride() bytes.
  const int8_t* block_codes() const { return codes_.get(); }

  const PqCodeBook& book() const { return book_; }

  /// Bound superblocks covering the blocks: one "bounds block" per
  /// kPackedBlockItems real blocks, ceil(num_blocks / kPackedBlockItems).
  int32_t num_bound_superblocks() const {
    return (num_blocks_ + kPackedBlockItems - 1) / kPackedBlockItems;
  }

  /// Per-BLOCK per-lane code extrema stored with the codes' own SoA block
  /// geometry, one level up —
  ///
  ///   superblock sb, lane strip l, slot j  =  extremum over lane l of the
  ///   8 codes of real block sb·kPackedBlockItems + j
  ///
  /// — so a query upper-bounds 8 real blocks with ONE kernel block: blend
  /// the max/min strips slot-wise by lane-weight sign into a "corner" block
  /// (the code vector the query would score best within the blocks' code
  /// boxes) and run it through the SAME PqScoreBlocks arithmetic as real
  /// items. IEEE rounding is monotone, so each corner score is ≥ every
  /// kernel score of its block's items bit-for-bit, never just
  /// approximately — a block whose corner score is strictly below the
  /// shortlist bar cannot contain a survivor. The extrema include the pad
  /// slots (code 0, which can only loosen a bound); slots for blocks past
  /// num_blocks() are 0 and never consumed (every scan bounds against the
  /// real block count).
  const int8_t* bound_lane_min() const { return bound_lane_min_.data(); }
  const int8_t* bound_lane_max() const { return bound_lane_max_.data(); }

  /// Dequantized value of (local item, lane); lane 0 is the bias.
  float DecodeLane(ItemId local, int32_t lane) const;

  /// Geometry check against the snapshot the codes claim to mirror:
  /// Corruption(context: ...) when items/factors/blocks/stride or the book's
  /// lane count disagree. Byte-level corruption is invisible here by design —
  /// the measured composed-recall gate is what catches it.
  Status VerifyGeometry(const PackedSnapshot& packed,
                        const std::string& context) const;

  /// Test/fault hook: deterministically scrambles every code byte WITHOUT
  /// touching the book or geometry — the "code book desynced from the
  /// floats" corruption that only the measured composed-recall gate can
  /// catch. Never use on codes that are concurrently served.
  void CorruptForTesting(uint64_t seed);

  /// Total code + book + block-bound bytes.
  std::size_t memory_bytes() const {
    return static_cast<std::size_t>(num_blocks_) * block_stride_ +
           book_.scale.size() * sizeof(float) * 2 +
           bound_lane_min_.size() + bound_lane_max_.size();
  }

 private:
  struct AlignedDeleter {
    void operator()(int8_t* p) const {
      ::operator delete[](p, std::align_val_t(kPackedAlignment));
    }
  };
  using AlignedCodes = std::unique_ptr<int8_t[], AlignedDeleter>;

  void CopyFrom(const PqCodes& other);

  PqCodeBook book_;
  AlignedCodes codes_;
  std::vector<int8_t> bound_lane_min_;
  std::vector<int8_t> bound_lane_max_;
  int32_t num_items_ = 0;
  int32_t num_factors_ = 0;
  int32_t num_blocks_ = 0;
  std::size_t block_stride_ = 0;
};

/// Prepares one query against `book`: fills `lane_weights[0..num_lanes)`
/// with the per-lane code multipliers (scale for the bias lane, u_f·scale
/// for factor lanes) and returns the per-query constant Σ_l w_l·offset[l]
/// that every item's quantized score starts from — uniform across items, so
/// it never changes the first-pass ranking, but keeping it makes quantized
/// scores comparable to exact ones for diagnostics.
float PqPrepareQuery(const PqCodeBook& book, const float* user_factors,
                     int32_t num_factors, float* lane_weights);

}  // namespace clapf

#endif  // CLAPF_MODEL_PQ_CODEC_H_

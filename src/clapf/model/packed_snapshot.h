#ifndef CLAPF_MODEL_PACKED_SNAPSHOT_H_
#define CLAPF_MODEL_PACKED_SNAPSHOT_H_

#include <cfloat>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "clapf/model/factor_model.h"
#include "clapf/util/status.h"

namespace clapf {

/// Items per packed block. Eight float32 lanes fill one AVX2 register, and a
/// (bias + factor) strip of 8 floats is exactly half a cache line, so block
/// rows never straddle lines once the base pointer is 64-byte aligned.
inline constexpr int32_t kPackedBlockItems = 8;

/// Alignment of the packed factor storage: one cache line, which also
/// satisfies the 32-byte alignment the AVX2 kernel's aligned loads want.
inline constexpr std::size_t kPackedAlignment = 64;

/// Worst-case |packed − exact| score gap for one (user, item) prediction,
/// given the L1 mass of its terms `l1 = Σ_f |u_f·v_f| + |b_i|`. Derivation:
/// converting each double input to float32 loses ≤ ε₃₂ relative per factor
/// (2ε₃₂ per product), and the blocked kernel accumulates the d+1 terms
/// sequentially per lane, losing ≤ (d+1)·ε₃₂·l1 more; the +1.0 floor absorbs
/// denormal/underflow noise near zero. This is the *documented exactness
/// contract* for the packed path: agreement tests and the serving canary
/// gate both enforce it.
inline double PackedScoreBound(int32_t num_factors, double l1_terms) {
  return (static_cast<double>(num_factors) + 8.0) *
         static_cast<double>(FLT_EPSILON) * (l1_terms + 1.0);
}

/// Immutable float32 repack of a FactorModel's parameters for the serving
/// hot path. Item parameters are laid out in 64-byte-aligned blocks of
/// kPackedBlockItems items in SoA (factor-major) order with the bias folded
/// in as lane 0 of every block:
///
///   block b  (items [8b, 8b+8), stride (d+1)·8 floats):
///     [ b_i .. 8 biases .. ][ f0 .. 8 lanes .. ][ f1 ... ] ... [ f_{d-1} ]
///
/// so the kernel scores 8 items with d fused multiply-adds on contiguous
/// strips — no per-item branch, no gather, no double→float conversion at
/// query time. The tail block is zero-padded: a pad lane scores 0.0 and is
/// never emitted because every entry point bounds-checks against
/// num_items(). User factors are stored as a row-major float32 matrix.
///
/// The snapshot is a point-in-time copy: it does NOT observe later training
/// updates to the source model, and it is safe to share read-only across any
/// number of query threads (serving rebuilds one per publish). Scores served
/// from it are approximate within PackedScoreBound(); the exact double path
/// in FactorModel is untouched.
class PackedSnapshot {
 public:
  /// Repacks `model` (one full pass over its parameters, no allocation on
  /// any later query). With `item_perm`, lane `local` of the item block
  /// array holds the parameters of global item `item_perm[local]`: a
  /// reordered repack straight from the double model, without
  /// materializing a permuted copy of it. `item_perm` must be a permutation
  /// of [0, num_items); nullptr means identity. IvfIndex uses this to lay
  /// the catalog out in cluster order. Blocks are filled over `threads`
  /// workers; the bytes do not depend on the count.
  static PackedSnapshot Build(const FactorModel& model,
                              const int32_t* item_perm = nullptr,
                              int threads = 1);

  /// A snapshot of `num_blocks` zeroed item blocks (num_blocks ·
  /// kPackedBlockItems items) whose user row x is
  /// rows.user_factors(users[x]): scratch that RepackItems fills a few
  /// blocks at a time, for passes over a model's catalog that must not
  /// hold its whole repack (the recall gate's ground truth).
  static PackedSnapshot Scratch(const PackedSnapshot& rows,
                                const std::vector<UserId>& users,
                                int32_t num_blocks);

  /// Writes items [begin, begin + count) of `model` into the blocks from
  /// `at_block` on, item begin + j at lane j of the run, converted as Build
  /// converts them (bias lane, factor-major lanes, pad lanes zero): for a
  /// block-aligned `begin`, the bytes of the same blocks of a base-order
  /// Build. The written blocks must lie inside this snapshot and `model`
  /// must have its factor count; calls on disjoint blocks may run
  /// concurrently.
  void RepackItems(const FactorModel& model, ItemId begin, int32_t count,
                   int32_t at_block);

  int32_t num_users() const { return num_users_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_factors() const { return num_factors_; }
  bool use_item_bias() const { return use_item_bias_; }

  /// Number of item blocks, i.e. ceil(num_items / kPackedBlockItems).
  int32_t num_blocks() const { return num_blocks_; }

  /// Floats per block: (num_factors + 1) * kPackedBlockItems.
  std::size_t block_stride() const { return block_stride_; }

  /// The aligned block array, num_blocks() * block_stride() floats.
  const float* block_data() const { return blocks_.get(); }

  /// Row of `num_factors` float32 user factors for `u`.
  const float* user_factors(UserId u) const {
    return users_.get() + static_cast<std::size_t>(u) * num_factors_;
  }

  /// Total packed parameter bytes (capacity planning / logging).
  std::size_t memory_bytes() const {
    return (static_cast<std::size_t>(num_blocks_) * block_stride_ +
            static_cast<std::size_t>(num_users_) * num_factors_) *
           sizeof(float);
  }

  /// Scores items [begin, end) into (*scores)[begin..end) (widened to
  /// double); `scores` must already be sized to num_items(). Drop-in for
  /// FactorModel::ScoreItemRange on the packed data — used by the packed
  /// FactorModelRanker mode (canary probe, evaluators).
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      std::vector<double>* scores) const;

  /// Mutable view of the block array, exposed so tests and fault drills can
  /// corrupt a packed snapshot deliberately. Never use on a snapshot that is
  /// concurrently served.
  float* mutable_block_data() { return blocks_.get(); }

 private:
  // IvfIndex embeds a (cluster-ordered) snapshot by value and so needs the
  // default state before its own Build assigns the real one.
  friend class IvfIndex;

  struct AlignedDeleter {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t(kPackedAlignment));
    }
  };
  using AlignedFloats = std::unique_ptr<float[], AlignedDeleter>;

  static AlignedFloats AllocAligned(std::size_t n);

  // Zeroes the ceil(count / kPackedBlockItems) blocks at `blocks` and
  // writes lane j (< count) from item item_perm[first + j], or first + j
  // without a permutation.
  static void PackLanes(const FactorModel& model, const int32_t* item_perm,
                        ItemId first, int32_t count, float* blocks,
                        std::size_t stride);

  PackedSnapshot() = default;

  int32_t num_users_ = 0;
  int32_t num_items_ = 0;
  int32_t num_factors_ = 0;
  bool use_item_bias_ = false;
  int32_t num_blocks_ = 0;
  std::size_t block_stride_ = 0;
  AlignedFloats blocks_;
  AlignedFloats users_;
};

/// The users a publish gate samples out of `num_users`: 0, s, 2s, ... below
/// num_users with stride s = max(1, num_users / min(sample_users,
/// num_users)). That is ceil(num_users / s) users, which can exceed
/// `sample_users` (by up to sample_users - 1): 20000 users at 64 samples
/// visit 65. Empty when either count is <= 0.
std::vector<UserId> GateSampleUsers(int32_t num_users, int32_t sample_users);

enum class ScoreKernel : int;  // clapf/model/score_kernel.h

/// What one VerifyPackedAgreement call ran with and compared. A slice
/// whose repack passed keeps its stamp, so that the next check can use it
/// as a baseline.
struct AgreementStamp {
  ScoreKernel kernel{};       // scored the packed side
  int32_t sample_users = 0;   // the sample size asked for
  int64_t pairs_checked = 0;  // (sampled user, 8-item block) pairs compared
  int64_t pairs_total = 0;    // sampled users x blocks: the full check's
};

/// A model and its repack that passed VerifyPackedAgreement as `stamp`
/// records, and what a candidate changed against it.
struct AgreementBaseline {
  const FactorModel* model = nullptr;
  const PackedSnapshot* packed = nullptr;
  AgreementStamp stamp;
  /// The candidate's items whose doubles differ from `model`'s, ascending
  /// (DiffItems(candidate, *model).items); every other item holds the
  /// bytes `model` holds. Null: unknown, and every pair is checked.
  const std::vector<ItemId>* dirty = nullptr;
  /// The lane of `packed` that holds each item (an index's
  /// global_to_local table); null: item i at lane i.
  const int32_t* global_to_local = nullptr;
};

/// Verifies the packed repack against the exact double model for the
/// GateSampleUsers(num_users, sample_users) users and every item: each
/// |Δscore| must stay within PackedScoreBound(). Returns FailedPrecondition
/// naming the first violating (user, item), users ascending then items
/// ascending. This is the packed half of the serving canary gate; `context`
/// names the candidate in errors. `local_to_global` (may be null: lane i
/// holds item i) names the item of each lane of `packed` — an index's
/// cluster-ordered repack is checked through its map, so a lane whose
/// floats belong to another item fails.
///
/// One pass over the repack: its blocks are cut into cache-sized tiles,
/// and each tile is checked against every sampled user while it is in
/// cache, the exact score and its L1 mass accumulated in one loop with the
/// same arithmetic as FactorModel::ScoreItemRange. Tiles are spread over
/// `threads` workers; the verdict and message do not depend on the count.
///
/// With a `baseline` the check covers only the (sampled user, block) pairs
/// whose inputs may differ from a pair it passed: a user whose double row
/// or packed floats differ is checked on every block, every other user on
/// the blocks holding an item of the baseline's dirty set, an item whose
/// floats differ from its floats in the baseline repack (wherever each
/// repack holds it), or pad lanes that differ from the baseline's. Every
/// other pair has exactly the inputs of a pair the baseline passed, so the
/// verdict and the first-violation Status equal the full check's. The
/// baseline is ignored — every pair is checked — unless it carries its
/// dirty set, its stamp names the kernel active now and the same
/// `sample_users`, its model has this model's dimensions and bias flag,
/// and its repack this repack's dimensions. `stamp` (may be null) receives
/// what this call ran with and compared, also on refusal.
Status VerifyPackedAgreement(const FactorModel& model,
                             const PackedSnapshot& packed,
                             int32_t sample_users, const std::string& context,
                             int threads = 1,
                             const AgreementBaseline* baseline = nullptr,
                             AgreementStamp* stamp = nullptr,
                             const int32_t* local_to_global = nullptr);

}  // namespace clapf

#endif  // CLAPF_MODEL_PACKED_SNAPSHOT_H_

#include "clapf/model/packed_snapshot.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "clapf/model/score_kernel.h"
#include "clapf/util/logging.h"
#include "clapf/util/thread_pool.h"

namespace clapf {

PackedSnapshot::AlignedFloats PackedSnapshot::AllocAligned(std::size_t n) {
  // Never allocate zero bytes: a model with no users/items still gets a
  // valid (unused) pointer so the accessors stay branch-free.
  const std::size_t bytes = std::max<std::size_t>(n, 1) * sizeof(float);
  return AlignedFloats(static_cast<float*>(
      ::operator new[](bytes, std::align_val_t(kPackedAlignment))));
}

void PackedSnapshot::PackLanes(const FactorModel& model,
                               const int32_t* item_perm, ItemId first,
                               int32_t count, float* blocks,
                               std::size_t stride) {
  // Zeroed first, so pad lanes score exactly 0.0 and the bias lane is
  // correct when the model has biases disabled.
  const int32_t num_blocks =
      (count + kPackedBlockItems - 1) / kPackedBlockItems;
  std::memset(blocks, 0,
              static_cast<std::size_t>(num_blocks) * stride * sizeof(float));
  const int32_t d = model.num_factors();
  const bool bias = model.use_item_bias();
  for (int32_t j = 0; j < count; ++j) {
    const ItemId src = item_perm != nullptr ? item_perm[first + j] : first + j;
    const int32_t lane = j % kPackedBlockItems;
    float* blk =
        blocks + static_cast<std::size_t>(j / kPackedBlockItems) * stride;
    if (bias) blk[lane] = static_cast<float>(model.ItemBias(src));
    auto vf = model.ItemFactors(src);
    for (int32_t f = 0; f < d; ++f) {
      blk[static_cast<std::size_t>(f + 1) * kPackedBlockItems + lane] =
          static_cast<float>(vf[static_cast<std::size_t>(f)]);
    }
  }
}

PackedSnapshot PackedSnapshot::Build(const FactorModel& model,
                                     const int32_t* item_perm, int threads) {
  PackedSnapshot snap;
  snap.num_users_ = model.num_users();
  snap.num_items_ = model.num_items();
  snap.num_factors_ = model.num_factors();
  snap.use_item_bias_ = model.use_item_bias();
  snap.num_blocks_ =
      (model.num_items() + kPackedBlockItems - 1) / kPackedBlockItems;
  snap.block_stride_ =
      static_cast<std::size_t>(model.num_factors() + 1) * kPackedBlockItems;

  snap.blocks_ = AllocAligned(static_cast<std::size_t>(snap.num_blocks_) *
                              snap.block_stride_);
  snap.users_ = AllocAligned(static_cast<std::size_t>(snap.num_users_) *
                             snap.num_factors_);

  // Runs of blocks over the workers.
  constexpr int32_t kRunBlocks = 1024;
  const int64_t runs = (snap.num_blocks_ + kRunBlocks - 1) / kRunBlocks;
  ParallelForEach(runs, threads, [&](int64_t r) {
    const int32_t first = static_cast<int32_t>(r) * kRunBlocks;
    const ItemId begin = first * kPackedBlockItems;
    const ItemId end = static_cast<ItemId>(std::min<int64_t>(
        snap.num_items_, int64_t{first + kRunBlocks} * kPackedBlockItems));
    PackLanes(model, item_perm, begin, end - begin,
              snap.blocks_.get() +
                  static_cast<std::size_t>(first) * snap.block_stride_,
              snap.block_stride_);
  });

  const std::vector<double>& uf = model.user_factor_data();
  float* users = snap.users_.get();
  for (std::size_t x = 0; x < uf.size(); ++x) {
    users[x] = static_cast<float>(uf[x]);
  }
  return snap;
}

PackedSnapshot PackedSnapshot::Scratch(const PackedSnapshot& rows,
                                       const std::vector<UserId>& users,
                                       int32_t num_blocks) {
  PackedSnapshot snap;
  snap.num_users_ = static_cast<int32_t>(users.size());
  snap.num_items_ = num_blocks * kPackedBlockItems;
  snap.num_factors_ = rows.num_factors_;
  snap.use_item_bias_ = rows.use_item_bias_;
  snap.num_blocks_ = num_blocks;
  snap.block_stride_ = rows.block_stride_;
  const std::size_t floats =
      static_cast<std::size_t>(num_blocks) * snap.block_stride_;
  snap.blocks_ = AllocAligned(floats);
  std::memset(snap.blocks_.get(), 0, floats * sizeof(float));
  snap.users_ = AllocAligned(users.size() *
                             static_cast<std::size_t>(snap.num_factors_));
  for (std::size_t x = 0; x < users.size(); ++x) {
    std::memcpy(snap.users_.get() + x * static_cast<std::size_t>(
                                            snap.num_factors_),
                rows.user_factors(users[x]),
                static_cast<std::size_t>(snap.num_factors_) * sizeof(float));
  }
  return snap;
}

void PackedSnapshot::RepackItems(const FactorModel& model, ItemId begin,
                                 int32_t count, int32_t at_block) {
  CLAPF_CHECK(model.num_factors() == num_factors_);
  CLAPF_CHECK(begin >= 0 && count >= 0 && begin + count <= model.num_items());
  CLAPF_CHECK(at_block >= 0 &&
              at_block + (count + kPackedBlockItems - 1) / kPackedBlockItems <=
                  num_blocks_);
  PackLanes(model, nullptr, begin, count,
            blocks_.get() + static_cast<std::size_t>(at_block) * block_stride_,
            block_stride_);
}

void PackedSnapshot::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                                    std::vector<double>* scores) const {
  CLAPF_CHECK(scores->size() == static_cast<std::size_t>(num_items_));
  CLAPF_CHECK(begin >= 0 && begin <= end && end <= num_items_);
  if (begin == end) return;

  // Score whole covering blocks into a bounded stack buffer, then widen just
  // the requested sub-range. Chunking keeps the buffer cache-resident for
  // arbitrarily large ranges.
  constexpr int32_t kChunkBlocks = 64;
  float buf[kChunkBlocks * kPackedBlockItems];

  const int32_t first_block = begin / kPackedBlockItems;
  const int32_t last_block = (end - 1) / kPackedBlockItems;
  for (int32_t b = first_block; b <= last_block; b += kChunkBlocks) {
    const int32_t nblocks = std::min(kChunkBlocks, last_block - b + 1);
    ScoreBlocks(*this, u, b, nblocks, buf);
    const ItemId chunk_begin =
        std::max(begin, b * kPackedBlockItems);
    const ItemId chunk_end =
        std::min(end, (b + nblocks) * kPackedBlockItems);
    for (ItemId i = chunk_begin; i < chunk_end; ++i) {
      (*scores)[static_cast<std::size_t>(i)] =
          static_cast<double>(buf[i - b * kPackedBlockItems]);
    }
  }
}

std::vector<UserId> GateSampleUsers(int32_t num_users, int32_t sample_users) {
  std::vector<UserId> users;
  if (num_users <= 0 || sample_users <= 0) return users;
  const int32_t stride =
      std::max(1, num_users / std::min(sample_users, num_users));
  for (UserId u = 0; u < num_users; u += stride) users.push_back(u);
  return users;
}

namespace {

// Items per agreement tile, a multiple of kPackedBlockItems. At d = 32 the
// tile's double copy is 256 KiB and its packed blocks 132 KiB: both stay in
// a core's L2 while every sampled user is checked against them.
constexpr int32_t kAgreementTileItems = 1024;

// One (user, item) pair outside PackedScoreBound.
struct AgreementViolation {
  size_t user_index = 0;  // into the sampled users
  ItemId item = 0;
  double delta = 0.0;
  double bound = 0.0;
};

// Two double lanes as one GCC/Clang vector: element-wise IEEE arithmetic
// in one SSE2/NEON register. A packed block's 8 lanes are four of them.
using Double2 = double __attribute__((vector_size(2 * sizeof(double))));
using Mask2 = int64_t __attribute__((vector_size(2 * sizeof(int64_t))));

Double2 Load2(const double* p) {
  Double2 v = {};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// |v| per lane by clearing the sign bit: std::abs, bit for bit.
Double2 Abs2(Double2 v) {
  const Mask2 no_sign = {std::numeric_limits<int64_t>::max(),
                         std::numeric_limits<int64_t>::max()};
  return reinterpret_cast<Double2>(reinterpret_cast<Mask2>(v) & no_sign);
}

// Which (sampled user, block) pairs a check compares. Without a baseline
// every user is dirty: checked on every block. With one, `user_dirty`
// flags the users whose double row or packed floats differ from it; every
// other user is checked on the blocks BlockChanged finds, which each tile
// finds for itself.
struct AgreementPlan {
  const FactorModel* base_model = nullptr;  // null: no baseline
  const PackedSnapshot* base_packed = nullptr;
  const int32_t* base_lane = nullptr;  // baseline global_to_local; null: i
  std::vector<uint8_t> item_dirty;     // per item: in the baseline's delta
  std::vector<uint8_t> user_dirty;     // per sampled user
  bool any_user_dirty = true;
};

// True when the baseline can stand in for pairs whose inputs it shares: it
// carries its dirty set, it passed under the kernel active now with the
// same sample, its model has the candidate's dimensions and bias flag, and
// its repack the candidate repack's dimensions.
bool BaselineApplies(const FactorModel& model, const PackedSnapshot& packed,
                     int32_t sample_users, ScoreKernel kernel,
                     const AgreementBaseline* base) {
  if (base == nullptr || base->model == nullptr || base->packed == nullptr ||
      base->dirty == nullptr) {
    return false;
  }
  const FactorModel& m = *base->model;
  const PackedSnapshot& p = *base->packed;
  return base->stamp.kernel == kernel &&
         base->stamp.sample_users == sample_users &&
         m.num_users() == model.num_users() &&
         m.num_items() == model.num_items() &&
         m.num_factors() == model.num_factors() &&
         m.use_item_bias() == model.use_item_bias() &&
         p.num_users() == packed.num_users() &&
         p.num_items() == packed.num_items() &&
         p.num_factors() == packed.num_factors();
}

// True when user u's double row or packed floats differ from the baseline.
bool UserDiffers(const FactorModel& model, const PackedSnapshot& packed,
                 const AgreementPlan& plan, UserId u) {
  const size_t d = static_cast<size_t>(model.num_factors());
  return std::memcmp(model.UserFactors(u).data(),
                     plan.base_model->UserFactors(u).data(),
                     d * sizeof(double)) != 0 ||
         std::memcmp(packed.user_factors(u), plan.base_packed->user_factors(u),
                     d * sizeof(float)) != 0;
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

// True when local block b of the candidate repack may hold a pair the
// baseline did not pass: an item of the dirty set, an item whose floats
// differ from its floats at its baseline lane, or pad lanes that differ
// from the baseline's. Item by item, not block by block: an index rebuild
// shifts the lane of nearly every item after a moved one, yet each keeps
// its floats. A block whose items all sit at their baseline lanes is one
// memcmp, pad lanes included.
bool BlockChanged(const PackedSnapshot& packed, const int32_t* local_to_global,
                  const AgreementPlan& plan, int32_t b) {
  const ItemId first = b * kPackedBlockItems;
  const int32_t lanes = std::min(kPackedBlockItems, packed.num_items() - first);
  const size_t stride = packed.block_stride();
  const float* cand = packed.block_data() + static_cast<size_t>(b) * stride;
  const float* base = plan.base_packed->block_data();
  ItemId at[kPackedBlockItems];  // each lane's baseline lane
  bool in_place = true;
  for (int32_t l = 0; l < lanes; ++l) {
    const ItemId g =
        local_to_global != nullptr ? local_to_global[first + l] : first + l;
    if (plan.item_dirty[static_cast<size_t>(g)] != 0) return true;
    at[l] = plan.base_lane != nullptr ? plan.base_lane[g] : g;
    in_place = in_place && at[l] == first + l;
  }
  if (in_place) {
    return std::memcmp(cand, base + static_cast<size_t>(b) * stride,
                       stride * sizeof(float)) != 0;
  }
  const size_t rows = stride / kPackedBlockItems;
  for (int32_t l = 0; l < kPackedBlockItems; ++l) {
    // A pad lane is compared with the same pad lane of the baseline's tail
    // block (both repacks hold the same item count).
    const ItemId old = l < lanes ? at[l] : first + l;
    const float* was =
        base + static_cast<size_t>(old / kPackedBlockItems) * stride +
        static_cast<size_t>(old % kPackedBlockItems);
    for (size_t r = 0; r < rows; ++r) {
      if (!SameBits(cand[r * kPackedBlockItems + static_cast<size_t>(l)],
                    was[r * kPackedBlockItems])) {
        return true;
      }
    }
  }
  return false;
}

// Consecutive tile-local blocks [first, first + count).
struct BlockRun {
  int32_t first = 0;
  int32_t count = 0;
};

// Checks the lanes [begin, end) of the repack (begin block-aligned)
// against every sampled user with index below `*first_bad_user`, and
// returns the tile's first violation in (user, item) order. Per `plan`, a
// dirty user is checked on every block of the tile and any other user on
// its changed blocks, whose count goes to `*changed_blocks`. The blocks
// some user needs are copied once into 8-item double blocks (factor-major
// inside a block, like the packed layout), each lane from the doubles of
// the item `local_to_global` (or the identity) names, so each user's exact
// scores and L1 masses run over contiguous strips, 8 items per vector: per
// item the score starts at the bias (0.0 without biases) and adds u_f·v_f
// in factor order — FactorModel::ScoreItemRange's arithmetic, bit for bit
// — and the L1 mass starts at |b_i| and adds |u_f·v_f|. A branch-free
// screen flags the user when any lane is off by more than half its bound;
// only a flagged user's blocks are then walked lane by lane against
// PackedScoreBound itself.
std::optional<AgreementViolation> CheckAgreementTile(
    const FactorModel& model, const PackedSnapshot& packed,
    const int32_t* local_to_global, const std::vector<UserId>& users,
    const AgreementPlan& plan, ItemId begin, ItemId end,
    std::atomic<size_t>* first_bad_user, int32_t* changed_blocks) {
  constexpr int32_t kLanes = kPackedBlockItems;
  const int32_t d = model.num_factors();
  const int32_t first_block = begin / kLanes;
  const int32_t num_blocks = (end - begin + kLanes - 1) / kLanes;
  const size_t block_doubles = static_cast<size_t>(d) * kLanes;
  const bool bias = model.use_item_bias();
  const auto item_at = [&](ItemId local) {
    return local_to_global != nullptr ? local_to_global[local] : local;
  };

  thread_local std::vector<BlockRun> changed_runs;
  changed_runs.clear();
  *changed_blocks = 0;
  if (plan.base_model != nullptr) {
    for (int32_t b = 0; b < num_blocks; ++b) {
      if (!BlockChanged(packed, local_to_global, plan, first_block + b)) {
        continue;
      }
      ++*changed_blocks;
      if (!changed_runs.empty() &&
          changed_runs.back().first + changed_runs.back().count == b) {
        ++changed_runs.back().count;
      } else {
        changed_runs.push_back({b, 1});
      }
    }
  }
  const BlockRun whole_tile[] = {{0, num_blocks}};
  const std::span<const BlockRun> every(whole_tile), changed(changed_runs);
  const std::span<const BlockRun> copied =
      plan.any_user_dirty ? every : changed;
  if (copied.empty()) return std::nullopt;

  // Pad lanes of a tail block are zero, as in the packed snapshot: they
  // score 0.0 on both sides and are never compared.
  thread_local std::vector<double> factors, bias0, l1_0;
  thread_local std::vector<float> approx;
  factors.resize(static_cast<size_t>(num_blocks) * block_doubles);
  bias0.resize(static_cast<size_t>(num_blocks) * kLanes);
  l1_0.resize(static_cast<size_t>(num_blocks) * kLanes);
  approx.resize(static_cast<size_t>(num_blocks) * kLanes);
  for (const BlockRun& run : copied) {
    for (int32_t b = run.first; b < run.first + run.count; ++b) {
      for (int32_t lane = 0; lane < kLanes; ++lane) {
        const size_t j = static_cast<size_t>(b) * kLanes +
                         static_cast<size_t>(lane);
        const double* vf = nullptr;
        bias0[j] = 0.0;
        if (j < static_cast<size_t>(end - begin)) {
          const ItemId i = item_at(begin + static_cast<ItemId>(j));
          vf = model.ItemFactors(i).data();
          if (bias) bias0[j] = model.ItemBias(i);
        }
        for (int32_t f = 0; f < d; ++f) {
          factors[static_cast<size_t>(b) * block_doubles +
                  static_cast<size_t>(f) * kLanes +
                  static_cast<size_t>(lane)] = vf != nullptr ? vf[f] : 0.0;
        }
        l1_0[j] = std::abs(bias0[j]);
      }
    }
  }

  // half_bound_scale · (l1 + 1) is exactly half of PackedScoreBound(d, l1)
  // (a power-of-two scale of the same product), so the screen flags every
  // lane the bound refuses.
  const double half_bound_scale = 0.5 * PackedScoreBound(d, 0.0);
  for (size_t ui = 0; ui < users.size(); ++ui) {
    // A smaller user already failed elsewhere: nothing here can come first.
    if (ui > first_bad_user->load(std::memory_order_relaxed)) break;
    const std::span<const BlockRun> runs =
        plan.user_dirty[ui] != 0 ? every : changed;
    if (runs.empty()) continue;
    const UserId u = users[ui];
    const double* uf = model.UserFactors(u).data();
    for (const BlockRun& run : runs) {
      ScoreBlocks(packed, u, first_block + run.first, run.count,
                  approx.data() + static_cast<size_t>(run.first) * kLanes);
    }
    // Block b's |exact − packed| gaps and L1 masses, 8 lanes as 4 pairs
    // kept in registers across the factor loop.
    auto block = [&](int32_t b, Double2 delta[4], Double2 l1[4]) {
      const size_t at = static_cast<size_t>(b) * kLanes;
      const double* strip =
          factors.data() + static_cast<size_t>(b) * block_doubles;
      Double2 s0 = Load2(&bias0[at]), s1 = Load2(&bias0[at + 2]),
              s2 = Load2(&bias0[at + 4]), s3 = Load2(&bias0[at + 6]);
      Double2 m0 = Load2(&l1_0[at]), m1 = Load2(&l1_0[at + 2]),
              m2 = Load2(&l1_0[at + 4]), m3 = Load2(&l1_0[at + 6]);
      for (int32_t f = 0; f < d; ++f, strip += kLanes) {
        const Double2 w = {uf[f], uf[f]};
        const Double2 p0 = w * Load2(strip), p1 = w * Load2(strip + 2),
                      p2 = w * Load2(strip + 4), p3 = w * Load2(strip + 6);
        s0 += p0;
        s1 += p1;
        s2 += p2;
        s3 += p3;
        m0 += Abs2(p0);
        m1 += Abs2(p1);
        m2 += Abs2(p2);
        m3 += Abs2(p3);
      }
      const Double2 score[4] = {s0, s1, s2, s3};
      for (int h = 0; h < 4; ++h) {
        const float* fast = &approx[at + 2 * static_cast<size_t>(h)];
        const Double2 packed_score = {static_cast<double>(fast[0]),
                                      static_cast<double>(fast[1])};
        delta[h] = Abs2(score[h] - packed_score);
      }
      l1[0] = m0;
      l1[1] = m1;
      l1[2] = m2;
      l1[3] = m3;
    };
    Mask2 flagged = {0, 0};
    for (const BlockRun& run : runs) {
      for (int32_t b = run.first; b < run.first + run.count; ++b) {
        Double2 delta[4], l1[4];
        block(b, delta, l1);
        for (int h = 0; h < 4; ++h) {
          flagged |= delta[h] > half_bound_scale * (l1[h] + 1.0);
        }
      }
    }
    if ((flagged[0] | flagged[1]) == 0) continue;
    // The user's violation with the smallest item: lanes need not hold
    // their items in order.
    std::optional<AgreementViolation> first;
    for (const BlockRun& run : runs) {
      for (int32_t b = run.first; b < run.first + run.count; ++b) {
        Double2 delta[4], l1[4];
        block(b, delta, l1);
        const int32_t lanes = std::min(kLanes, end - begin - b * kLanes);
        for (int l = 0; l < lanes; ++l) {
          const double bound = PackedScoreBound(d, l1[l / 2][l % 2]);
          if (delta[l / 2][l % 2] <= bound) continue;
          const ItemId item = item_at(begin + b * kLanes + l);
          if (!first || item < first->item) {
            first = AgreementViolation{ui, item, delta[l / 2][l % 2], bound};
          }
        }
      }
    }
    if (first) {
      AtomicMin(first_bad_user, ui);
      return first;
    }
  }
  return std::nullopt;
}

}  // namespace

Status VerifyPackedAgreement(const FactorModel& model,
                             const PackedSnapshot& packed,
                             int32_t sample_users, const std::string& context,
                             int threads, const AgreementBaseline* baseline,
                             AgreementStamp* stamp,
                             const int32_t* local_to_global) {
  AgreementStamp ran;
  ran.kernel = ActiveScoreKernel();
  ran.sample_users = sample_users;
  if (stamp != nullptr) *stamp = ran;
  if (model.num_users() != packed.num_users() ||
      model.num_items() != packed.num_items() ||
      model.num_factors() != packed.num_factors()) {
    return Status::FailedPrecondition(
        context + ": packed snapshot dimensions disagree with the model");
  }
  const std::vector<UserId> users =
      GateSampleUsers(model.num_users(), sample_users);
  if (users.empty() || model.num_items() == 0) return Status::OK();

  AgreementPlan plan;
  plan.user_dirty.assign(users.size(), 1);
  if (BaselineApplies(model, packed, sample_users, ran.kernel, baseline)) {
    plan.base_model = baseline->model;
    plan.base_packed = baseline->packed;
    plan.base_lane = baseline->global_to_local;
    plan.item_dirty.assign(static_cast<size_t>(model.num_items()), 0);
    for (ItemId i : *baseline->dirty) {
      CLAPF_CHECK(i >= 0 && i < model.num_items());
      plan.item_dirty[static_cast<size_t>(i)] = 1;
    }
    plan.any_user_dirty = false;
    for (size_t ui = 0; ui < users.size(); ++ui) {
      plan.user_dirty[ui] = UserDiffers(model, packed, plan, users[ui]);
      plan.any_user_dirty = plan.any_user_dirty || plan.user_dirty[ui] != 0;
    }
  }

  // Every tile reports its own first violation; the smallest (user, item)
  // over the tiles is the serial scan's first violation.
  const int64_t num_tiles =
      (model.num_items() + kAgreementTileItems - 1) / kAgreementTileItems;
  std::vector<std::optional<AgreementViolation>> found(
      static_cast<size_t>(num_tiles));
  std::vector<int32_t> changed_blocks(static_cast<size_t>(num_tiles), 0);
  std::atomic<size_t> first_bad_user{users.size()};
  ParallelForEach(num_tiles, threads, [&](int64_t t) {
    const ItemId begin = static_cast<ItemId>(t) * kAgreementTileItems;
    const ItemId end =
        std::min<ItemId>(model.num_items(), begin + kAgreementTileItems);
    found[static_cast<size_t>(t)] = CheckAgreementTile(
        model, packed, local_to_global, users, plan, begin, end,
        &first_bad_user, &changed_blocks[static_cast<size_t>(t)]);
  });
  if (stamp != nullptr) {
    const int64_t changed = std::accumulate(changed_blocks.begin(),
                                            changed_blocks.end(), int64_t{0});
    stamp->pairs_total =
        static_cast<int64_t>(users.size()) * packed.num_blocks();
    for (uint8_t dirty : plan.user_dirty) {
      stamp->pairs_checked += dirty != 0 ? packed.num_blocks() : changed;
    }
  }
  const AgreementViolation* first = nullptr;
  for (const auto& v : found) {
    if (v && (first == nullptr || v->user_index < first->user_index ||
              (v->user_index == first->user_index &&
               v->item < first->item))) {
      first = &*v;
    }
  }
  if (first == nullptr) return Status::OK();
  return Status::FailedPrecondition(
      context + ": packed score for user " +
      std::to_string(users[first->user_index]) + " item " +
      std::to_string(first->item) + " off by " +
      std::to_string(first->delta) + " (bound " +
      std::to_string(first->bound) + ")");
}

}  // namespace clapf

#include "clapf/model/ivf_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include <thread>

#include "clapf/model/centroid_panel.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/obs/trace_span.h"
#include "clapf/util/crc32.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/logging.h"
#include "clapf/util/random.h"
#include "clapf/util/stopwatch.h"
#include "clapf/util/thread_pool.h"
#include "clapf/util/top_k.h"

namespace clapf {
namespace {

// CRC32 of one item's source parameters (factor doubles + bias double).
// Bitwise, so any training update — however small — flags the item dirty.
uint32_t ItemCrc(const FactorModel& model, ItemId i) {
  auto vf = model.ItemFactors(i);
  uint32_t c = Crc32Init();
  c = Crc32Update(c, vf.data(), vf.size() * sizeof(double));
  if (model.use_item_bias()) {
    const double b = model.ItemBias(i);
    c = Crc32Update(c, &b, sizeof(b));
  }
  return Crc32Finalize(c);
}

// Squared un-augmented norm b_i² + ‖v_i‖² of item i.
double ItemNorm2(const FactorModel& model, ItemId i) {
  auto vf = model.ItemFactors(i);
  double n2 = 0.0;
  for (double v : vf) n2 += v * v;
  if (model.use_item_bias()) {
    const double b = model.ItemBias(i);
    n2 += b * b;
  }
  return n2;
}

// Writes item i's norm-augmented vector [b, v.., residual] into out[0..ad).
// The residual sqrt(M² − n2) is clamped at zero: items that outgrow the M
// the index was built against (online catalog growth) still get a valid
// direction, just without the equal-norm guarantee — the recall gate is the
// backstop for any drift this causes.
void AugmentItem(const FactorModel& model, ItemId i, double m2, double* out) {
  const int32_t d = model.num_factors();
  out[0] = model.use_item_bias() ? model.ItemBias(i) : 0.0;
  auto vf = model.ItemFactors(i);
  for (int32_t f = 0; f < d; ++f) out[1 + f] = vf[static_cast<size_t>(f)];
  const double n2 = ItemNorm2(model, i);
  out[d + 1] = std::sqrt(std::max(0.0, m2 - n2));
}

// M² = the largest b_i² + ‖v_i‖² over the catalog, as per-chunk maxima
// reduced in chunk order. The maximum of a set is exact and order-free, and
// std::max skips NaN norms in every grouping, so any thread count returns
// the serial scan's value.
double MaxItemNorm2(const FactorModel& model, int threads) {
  constexpr ItemId kChunk = 4096;
  const ItemId n = model.num_items();
  const int64_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<double> chunk_max(static_cast<size_t>(chunks), 0.0);
  ParallelForEach(chunks, threads, [&](int64_t c) {
    const ItemId begin = static_cast<ItemId>(c) * kChunk;
    const ItemId end = std::min<ItemId>(n, begin + kChunk);
    double m = 0.0;
    for (ItemId i = begin; i < end; ++i) m = std::max(m, ItemNorm2(model, i));
    chunk_max[static_cast<size_t>(c)] = m;
  });
  double m2 = 0.0;
  for (double m : chunk_max) m2 = std::max(m2, m);
  return m2;
}

// Rows per parallel assignment task: 136 KiB of augmented rows at d = 32,
// beside the 272 KiB panel of 1000 centroids, stays in a core's L2.
constexpr int64_t kAssignChunk = 512;

// Lloyd iterations of every k-means training run.
constexpr int32_t kKmeansIterations = 8;

// assignment[i] = the nearest panel centroid of item i's augmented vector,
// for the `count` items ids[0..count) (items 0..count when `ids` is null).
// Items are lifted into the augmented space one cache-sized chunk at a
// time, so the catalog's augmented copy never exists in full. Each item's
// id depends only on its own vector and the panel, so any thread count
// assigns the same ids.
void AssignItems(const FactorModel& model, const ItemId* ids, int64_t count,
                 double m2, const CentroidPanel& panel, int threads,
                 int32_t* assignment) {
  const int32_t ad = panel.dims();
  const int64_t chunks = (count + kAssignChunk - 1) / kAssignChunk;
  ParallelForEach(chunks, threads, [&](int64_t c) {
    const int64_t begin = c * kAssignChunk;
    const int64_t rows = std::min(kAssignChunk, count - begin);
    std::vector<double> lifted(static_cast<size_t>(rows) * ad);
    int32_t nearest[kAssignChunk];
    for (int64_t r = 0; r < rows; ++r) {
      const ItemId i = ids != nullptr ? ids[begin + r]
                                      : static_cast<ItemId>(begin + r);
      AugmentItem(model, i, m2, lifted.data() + static_cast<size_t>(r) * ad);
    }
    panel.Assign(lifted.data(), rows, nearest);
    for (int64_t r = 0; r < rows; ++r) {
      const ItemId i = ids != nullptr ? ids[begin + r]
                                      : static_cast<ItemId>(begin + r);
      assignment[static_cast<size_t>(i)] = nearest[r];
    }
  });
}

// The k-th largest of keys[0..n) (1 <= k <= n), by MSB-first radix
// selection with no data-dependent branches in the scan loops. This is the
// shortlist's compaction selector: quickselect (std::nth_element) runs its
// partition branches on fresh per-query data, where they mispredict ~50%
// and cost 3-5x what reused-input microbenchmarks suggest; histogram
// counting and predicated gathers don't care what the data looks like.
// Each level pins one more key byte — histogram the current byte, walk
// buckets from the top until the k-th key's bucket is found, then gather
// that bucket and recurse into the next byte. PqPackCandidate keys are
// unique, so the candidate set collapses to one key within a few levels on
// real score distributions (the early exits below).
uint64_t PqRadixSelect(const uint64_t* keys, size_t n, size_t k) {
  static thread_local std::vector<uint64_t> buf_a, buf_b;
  buf_a.assign(keys, keys + n);
  buf_b.resize(n);
  uint64_t* cur = buf_a.data();
  uint64_t* nxt = buf_b.data();
  size_t cnt = n;
  for (int shift = 56; shift >= 0; shift -= 8) {
    if (cnt == 1) return cur[0];
    if (cnt == k) {
      // Every remaining key ranks at or above position k: the k-th largest
      // is their minimum.
      uint64_t m = cur[0];
      for (size_t i = 1; i < cnt; ++i) m = std::min(m, cur[i]);
      return m;
    }
    uint32_t hist[256] = {0};
    for (size_t i = 0; i < cnt; ++i) {
      ++hist[(cur[i] >> shift) & 0xffu];
    }
    size_t above = 0;
    uint64_t byte = 255;
    for (;; --byte) {
      if (above + hist[byte] >= k) break;
      above += hist[byte];
    }
    k -= above;
    size_t w = 0;
    for (size_t i = 0; i < cnt; ++i) {
      const uint64_t key = cur[i];
      nxt[w] = key;
      w += static_cast<size_t>(((key >> shift) & 0xffu) == byte);
    }
    cnt = w;
    std::swap(cur, nxt);
  }
  return cur[0];  // all 8 bytes pinned: the survivors are all equal
}

}  // namespace

ItemDelta DiffItems(const FactorModel& model, const FactorModel& base,
                    int threads) {
  CLAPF_CHECK(model.num_factors() == base.num_factors() &&
              model.use_item_bias() == base.use_item_bias() &&
              base.num_items() <= model.num_items());
  const size_t d = static_cast<size_t>(model.num_factors());
  const bool bias = model.use_item_bias();
  const ItemId n = model.num_items();
  const ItemId shared = base.num_items();
  // Each chunk lists its own dirty items; the chunks concatenate in item
  // order, so the set is the serial scan's for any thread count.
  constexpr ItemId kChunk = 4096;
  const int64_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<ItemDelta> parts(static_cast<size_t>(chunks));
  ParallelForEach(chunks, threads, [&](int64_t c) {
    const ItemId begin = static_cast<ItemId>(c) * kChunk;
    const ItemId end = std::min<ItemId>(n, begin + kChunk);
    ItemDelta& part = parts[static_cast<size_t>(c)];
    for (ItemId i = begin; i < end; ++i) {
      const bool dirty =
          i >= shared ||
          std::memcmp(model.ItemFactors(i).data(), base.ItemFactors(i).data(),
                      d * sizeof(double)) != 0 ||
          (bias && std::memcmp(&model.item_bias_data()[static_cast<size_t>(i)],
                               &base.item_bias_data()[static_cast<size_t>(i)],
                               sizeof(double)) != 0);
      if (dirty) {
        part.items.push_back(i);
        part.crcs.push_back(ItemCrc(model, i));
      }
    }
  });
  ItemDelta delta;
  for (const ItemDelta& part : parts) {
    delta.items.insert(delta.items.end(), part.items.begin(),
                       part.items.end());
    delta.crcs.insert(delta.crcs.end(), part.crcs.begin(), part.crcs.end());
  }
  return delta;
}

IvfIndex IvfIndex::Build(const FactorModel& model, const IvfOptions& options,
                         IvfBuildPhases* phases) {
  IvfIndex idx;
  idx.options_ = options;
  idx.num_items_ = model.num_items();
  idx.num_factors_ = model.num_factors();
  idx.use_item_bias_ = model.use_item_bias();

  const int32_t n = idx.num_items_;
  const int32_t d = idx.num_factors_;
  const int32_t ad = d + 2;
  const int threads = options.build_threads;
  IvfBuildPhases times;
  Stopwatch phase;

  if (n == 0) {
    idx.num_clusters_ = 0;
    idx.cluster_begin_.assign(1, 0);
    idx.packed_ = PackedSnapshot::Build(model);
    times.repack_us = phase.ElapsedMicros();
    if (options.pq) {
      phase.Reset();
      idx.pq_ = PqCodes::Encode(idx.packed_,
                                PqCodes::TrainBook(idx.packed_, 1), 1);
      times.encode_us = phase.ElapsedMicros();
    }
    if (phases != nullptr) *phases = times;
    return idx;
  }

  int32_t k = options.num_clusters > 0
                  ? options.num_clusters
                  : static_cast<int32_t>(
                        std::ceil(std::sqrt(static_cast<double>(n))));
  k = std::max(1, std::min(k, n));
  idx.num_clusters_ = k;

  const double m2 = MaxItemNorm2(model, threads);
  idx.aug_m2_ = m2;

  // Deterministic strided training sample, lifted into the augmented space
  // once; the rest of the catalog is lifted chunk by chunk in the final
  // assignment pass.
  const int32_t max_train = std::max(1, options.max_train_points);
  const int32_t stride = std::max(1, n / std::min(max_train, n));
  std::vector<int32_t> sample;
  sample.reserve(static_cast<size_t>(n / stride) + 1);
  for (ItemId i = 0; i < n; i += stride) sample.push_back(i);
  std::vector<double> train(sample.size() * static_cast<size_t>(ad));
  ParallelForEach(static_cast<int64_t>(sample.size()), threads,
                  [&](int64_t s) {
                    AugmentItem(model, sample[static_cast<size_t>(s)], m2,
                                train.data() + static_cast<size_t>(s) * ad);
                  });

  // Seeded init: k distinct sample points in shuffled order (cycled when the
  // sample is smaller than k — the duplicates converge apart or end up as
  // empty clusters, both handled below).
  std::vector<int32_t> init = sample;
  Rng rng(options.seed);
  rng.Shuffle(init);
  std::vector<double> centroids(static_cast<size_t>(k) * ad);
  for (int32_t c = 0; c < k; ++c) {
    AugmentItem(model, init[static_cast<size_t>(c) % init.size()], m2,
                centroids.data() + static_cast<size_t>(c) * ad);
  }

  // Lloyd iterations over the sample. Assignment is parallel (disjoint
  // writes, a shared read-only panel of the float centroids); the centroid
  // update accumulates serially in sample order — so the result is
  // bit-identical for any build_threads.
  std::vector<float> centroids_f(static_cast<size_t>(k) * ad);
  std::vector<int32_t> sample_assign(sample.size());
  std::vector<double> sums(static_cast<size_t>(k) * ad);
  std::vector<int64_t> counts(static_cast<size_t>(k));
  const int64_t num_train = static_cast<int64_t>(sample.size());
  const int64_t train_chunks = (num_train + kAssignChunk - 1) / kAssignChunk;
  for (int32_t iter = 0; iter < kKmeansIterations; ++iter) {
    for (size_t x = 0; x < centroids.size(); ++x) {
      centroids_f[x] = static_cast<float>(centroids[x]);
    }
    const CentroidPanel panel(centroids_f.data(), k, ad);
    ParallelForEach(train_chunks, threads, [&](int64_t c) {
      const int64_t begin = c * kAssignChunk;
      panel.Assign(train.data() + static_cast<size_t>(begin) * ad,
                   std::min(kAssignChunk, num_train - begin),
                   sample_assign.data() + begin);
    });
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t s = 0; s < sample.size(); ++s) {
      const int32_t c = sample_assign[s];
      const double* x = train.data() + s * ad;
      double* dst = sums.data() + static_cast<size_t>(c) * ad;
      for (int32_t f = 0; f < ad; ++f) dst[f] += x[f];
      ++counts[static_cast<size_t>(c)];
    }
    for (int32_t c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;  // keep previous
      const double inv = 1.0 / static_cast<double>(counts[static_cast<size_t>(c)]);
      double* dst = centroids.data() + static_cast<size_t>(c) * ad;
      const double* src = sums.data() + static_cast<size_t>(c) * ad;
      for (int32_t f = 0; f < ad; ++f) dst[f] = src[f] * inv;
    }
  }
  train = {};  // the sample's augmented copy is done

  // Freeze centroids as float32 *before* the final full assignment, so a
  // later RebuildDirty — which only has the float centroids — assigns dirty
  // items with exactly the arithmetic used here.
  for (size_t x = 0; x < centroids.size(); ++x) {
    centroids_f[x] = static_cast<float>(centroids[x]);
  }
  idx.centroids_ = centroids_f;
  times.kmeans_us = phase.ElapsedMicros();

  phase.Reset();
  idx.assignment_.resize(static_cast<size_t>(n));
  AssignItems(model, nullptr, n, m2,
              CentroidPanel(idx.centroids_.data(), k, ad), threads,
              idx.assignment_.data());
  idx.item_crc_.resize(static_cast<size_t>(n));
  ParallelForEach(n, threads, [&](int64_t i) {
    idx.item_crc_[static_cast<size_t>(i)] =
        ItemCrc(model, static_cast<ItemId>(i));
  });
  times.assign_us = phase.ElapsedMicros();

  phase.Reset();
  idx.FinishLayout(model);
  times.repack_us = phase.ElapsedMicros();
  // Full build trains a fresh code book from the permuted floats and
  // encodes every item. Deterministic for any build_threads (min/max
  // reductions + disjoint per-item encodes), like the rest of the build.
  if (options.pq) {
    phase.Reset();
    idx.pq_ = PqCodes::Encode(idx.packed_,
                              PqCodes::TrainBook(idx.packed_, threads),
                              threads);
    times.encode_us = phase.ElapsedMicros();
  }
  if (phases != nullptr) *phases = times;
  return idx;
}

void IvfIndex::FinishLayout(const FactorModel& model) {
  const int32_t n = num_items_;
  const int32_t k = num_clusters_;
  // Counting sort of items by cluster; within a cluster, ascending global id
  // (stable by construction) — fully deterministic layout.
  cluster_begin_.assign(static_cast<size_t>(k) + 1, 0);
  for (ItemId i = 0; i < n; ++i) {
    ++cluster_begin_[static_cast<size_t>(assignment_[static_cast<size_t>(i)]) +
                     1];
  }
  for (int32_t c = 0; c < k; ++c) {
    cluster_begin_[static_cast<size_t>(c) + 1] +=
        cluster_begin_[static_cast<size_t>(c)];
  }
  local_to_global_.resize(static_cast<size_t>(n));
  global_to_local_.resize(static_cast<size_t>(n));
  std::vector<int32_t> cursor(cluster_begin_.begin(), cluster_begin_.end() - 1);
  for (ItemId i = 0; i < n; ++i) {
    const int32_t local =
        cursor[static_cast<size_t>(assignment_[static_cast<size_t>(i)])]++;
    local_to_global_[static_cast<size_t>(local)] = i;
    global_to_local_[static_cast<size_t>(i)] = local;
  }
  packed_ = PackedSnapshot::Build(model, local_to_global_.data(),
                                  options_.build_threads);
}

Result<IvfIndex> IvfIndex::RebuildDirty(const IvfIndex& previous,
                                        const FactorModel& model,
                                        const IvfOptions& options,
                                        int64_t* items_reassigned,
                                        IvfBuildPhases* phases,
                                        const ItemDelta* delta) {
  if (!options.CompatibleWith(previous.options_)) {
    return Status::InvalidArgument(
        "ivf rebuild: options incompatible with the previous build");
  }
  if (model.num_factors() != previous.num_factors_ ||
      model.use_item_bias() != previous.use_item_bias_) {
    return Status::InvalidArgument(
        "ivf rebuild: model shape changed (factors/bias) since the previous "
        "build");
  }
  if (model.num_items() < previous.num_items_) {
    return Status::InvalidArgument("ivf rebuild: catalog shrank from " +
                                   std::to_string(previous.num_items_) +
                                   " to " +
                                   std::to_string(model.num_items()) +
                                   " items");
  }
  if (previous.num_clusters_ == 0) {
    return Status::InvalidArgument(
        "ivf rebuild: previous index has no clusters");
  }

  IvfIndex idx;
  idx.options_ = options;
  idx.num_items_ = model.num_items();
  idx.num_factors_ = previous.num_factors_;
  idx.num_clusters_ = previous.num_clusters_;
  idx.use_item_bias_ = previous.use_item_bias_;
  idx.aug_m2_ = previous.aug_m2_;
  idx.centroids_ = previous.centroids_;

  const int32_t n = idx.num_items_;
  const int32_t ad = idx.num_factors_ + 2;
  IvfBuildPhases times;
  Stopwatch phase;

  // An item whose parameter bytes are unchanged keeps its previous cluster
  // and CRC; a changed (or newly grown) item is queued for its nearest
  // frozen centroid. No k-means re-training — that is the entire saving.
  std::vector<ItemId> hashed_dirty;
  const std::vector<ItemId>* dirty_items = &hashed_dirty;
  if (delta != nullptr) {
    // The caller's byte compare already found the changed items and hashed
    // them: carry everything else over without reading it.
    CLAPF_CHECK(delta->items.size() == delta->crcs.size());
    const size_t shared = static_cast<size_t>(previous.num_items_);
    idx.item_crc_ = previous.item_crc_;
    idx.item_crc_.resize(static_cast<size_t>(n));
    idx.assignment_ = previous.assignment_;
    idx.assignment_.resize(static_cast<size_t>(n));
    size_t grown = 0;
    for (size_t x = 0; x < delta->items.size(); ++x) {
      const size_t i = static_cast<size_t>(delta->items[x]);
      CLAPF_CHECK(i < static_cast<size_t>(n));
      idx.item_crc_[i] = delta->crcs[x];
      grown += i >= shared ? 1 : 0;
    }
    CLAPF_CHECK(grown == static_cast<size_t>(n) - shared)
        << "ivf rebuild: the delta must list every grown item";
    dirty_items = &delta->items;
  } else {
    // Dirty detection in one parallel pass against the stored CRCs.
    idx.item_crc_.resize(static_cast<size_t>(n));
    idx.assignment_.resize(static_cast<size_t>(n));
    std::vector<uint8_t> dirty(static_cast<size_t>(n), 0);
    ParallelForEach(n, options.build_threads, [&](int64_t i) {
      const uint32_t crc = ItemCrc(model, static_cast<ItemId>(i));
      idx.item_crc_[static_cast<size_t>(i)] = crc;
      if (i < previous.num_items_ &&
          crc == previous.item_crc_[static_cast<size_t>(i)]) {
        idx.assignment_[static_cast<size_t>(i)] =
            previous.assignment_[static_cast<size_t>(i)];
      } else {
        dirty[static_cast<size_t>(i)] = 1;
      }
    });
    for (ItemId i = 0; i < n; ++i) {
      if (dirty[static_cast<size_t>(i)] != 0) hashed_dirty.push_back(i);
    }
  }
  AssignItems(model, dirty_items->data(),
              static_cast<int64_t>(dirty_items->size()), idx.aug_m2_,
              CentroidPanel(idx.centroids_.data(), idx.num_clusters_, ad),
              options.build_threads, idx.assignment_.data());
  if (items_reassigned != nullptr) {
    *items_reassigned = static_cast<int64_t>(dirty_items->size());
  }
  times.assign_us = phase.ElapsedMicros();

  phase.Reset();
  idx.FinishLayout(model);
  times.repack_us = phase.ElapsedMicros();
  // Code refresh against the FROZEN book: every item of the new layout is
  // encoded, block by block, and a code is a pure function of (float,
  // scale, offset), so a clean item gets exactly the bytes it had. The book
  // never retrains here — a majority-dirty republish already falls back to
  // a full Build at the caller, which is where the book (like the
  // centroids) gets refreshed. New items can land outside the frozen book's
  // range and clamp; the measured composed-recall gate is the backstop for
  // that drift.
  if (options.pq) {
    phase.Reset();
    idx.pq_ = PqCodes::Encode(
        idx.packed_,
        previous.has_pq()
            ? previous.pq_.book()
            : PqCodes::TrainBook(idx.packed_, options.build_threads),
        options.build_threads);
    times.encode_us = phase.ElapsedMicros();
  }
  if (phases != nullptr) *phases = times;
  return idx;
}

void IvfIndex::SelectProbes(UserId u, int32_t nprobe, size_t min_items,
                            std::vector<IvfProbeRange>* ranges,
                            int32_t* probes_used) const {
  ranges->clear();
  if (probes_used != nullptr) *probes_used = 0;
  if (num_clusters_ == 0 || num_items_ == 0) return;

  if (nprobe <= 0) nprobe = options_.default_nprobe;
  nprobe = std::max(1, std::min(nprobe, num_clusters_));

  // Rank clusters by centroid relevance to the augmented query [1, u, 0]:
  // s_c = c[0]·1 + Σ_f u_f·c[1+f] (the residual coordinate multiplies the
  // query's 0 and drops out). Ties break to the smaller cluster id so the
  // probe order — and therefore the whole ANN result — is deterministic.
  const float* uf = packed_.user_factors(u);
  const int32_t d = num_factors_;
  const int32_t ad = d + 2;
  thread_local std::vector<std::pair<double, int32_t>> ranked;
  ranked.resize(static_cast<size_t>(num_clusters_));
  // Four clusters in flight: each cluster's sum is a serial double-add
  // chain (latency-bound), but clusters are independent, so interleaving
  // them hides the add latency without changing any cluster's summation
  // order — scores stay bit-identical to the one-at-a-time loop, and so
  // does every probe selection downstream.
  int32_t c = 0;
  for (; c + 4 <= num_clusters_; c += 4) {
    const float* c0 = centroids_.data() + static_cast<size_t>(c) * ad;
    const float* c1 = c0 + ad;
    const float* c2 = c1 + ad;
    const float* c3 = c2 + ad;
    double s0 = static_cast<double>(c0[0]);
    double s1 = static_cast<double>(c1[0]);
    double s2 = static_cast<double>(c2[0]);
    double s3 = static_cast<double>(c3[0]);
    for (int32_t f = 0; f < d; ++f) {
      const double w = static_cast<double>(uf[f]);
      s0 += w * static_cast<double>(c0[1 + f]);
      s1 += w * static_cast<double>(c1[1 + f]);
      s2 += w * static_cast<double>(c2[1 + f]);
      s3 += w * static_cast<double>(c3[1 + f]);
    }
    ranked[static_cast<size_t>(c)] = {s0, c};
    ranked[static_cast<size_t>(c) + 1] = {s1, c + 1};
    ranked[static_cast<size_t>(c) + 2] = {s2, c + 2};
    ranked[static_cast<size_t>(c) + 3] = {s3, c + 3};
  }
  for (; c < num_clusters_; ++c) {
    const float* cen = centroids_.data() + static_cast<size_t>(c) * ad;
    double s = static_cast<double>(cen[0]);
    for (int32_t f = 0; f < d; ++f) {
      s += static_cast<double>(uf[f]) * static_cast<double>(cen[1 + f]);
    }
    ranked[static_cast<size_t>(c)] = {s, c};
  }
  const auto better = [](const std::pair<double, int32_t>& a,
                         const std::pair<double, int32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };

  // Take the top nprobe clusters, widening past nprobe while fewer than
  // min_items real items are covered — the guarantee that a k-item query
  // can always fill its slots (net of exclusions handled by the caller
  // inflating min_items). Worst case this degrades to the full catalog,
  // i.e. the exact scan. The take-loop almost always consumes just the top
  // nprobe clusters, so only a geometrically growing prefix is ordered
  // (partial_sort) instead of fully sorting every cluster per query — the
  // full sort dominated ANN query latency at serving cluster counts. The
  // comparator is a strict total order (score, then id), so the selected
  // prefix is identical no matter how much of the tail stays unordered.
  thread_local std::vector<int32_t> chosen;
  size_t covered = 0;
  int32_t prefix = std::min(num_clusters_, std::max(nprobe, 1));
  for (;;) {
    std::partial_sort(ranked.begin(), ranked.begin() + prefix, ranked.end(),
                      better);
    chosen.clear();
    covered = 0;
    for (int32_t i = 0; i < prefix; ++i) {
      if (static_cast<int32_t>(chosen.size()) >= nprobe &&
          covered >= min_items) {
        break;
      }
      chosen.push_back(ranked[static_cast<size_t>(i)].second);
      covered += static_cast<size_t>(ClusterSize(chosen.back()));
    }
    if ((static_cast<int32_t>(chosen.size()) >= nprobe &&
         covered >= min_items) ||
        prefix == num_clusters_) {
      break;
    }
    prefix = std::min(num_clusters_, prefix * 4);
  }
  if (probes_used != nullptr) {
    *probes_used = static_cast<int32_t>(chosen.size());
  }

  // Emit the chosen clusters as local ranges with block-aligned begins
  // (rounding down may annex the tail of a neighboring cluster's block —
  // those extra candidates are scored exactly, so they only help), then
  // merge overlaps so no block is ever scored twice (a double Push would
  // duplicate an item in the accumulator).
  ranges->reserve(chosen.size());
  for (int32_t c : chosen) {
    ItemId begin = cluster_begin_[static_cast<size_t>(c)];
    const ItemId end = cluster_begin_[static_cast<size_t>(c) + 1];
    if (begin == end) continue;  // empty cluster
    begin -= begin % kPackedBlockItems;
    ranges->push_back({begin, end});
  }
  std::sort(ranges->begin(), ranges->end(),
            [](const IvfProbeRange& a, const IvfProbeRange& b) {
              return a.begin < b.begin;
            });
  size_t out = 0;
  for (size_t r = 0; r < ranges->size(); ++r) {
    if (out > 0 && (*ranges)[r].begin <= (*ranges)[out - 1].end) {
      (*ranges)[out - 1].end =
          std::max((*ranges)[out - 1].end, (*ranges)[r].end);
    } else {
      (*ranges)[out++] = (*ranges)[r];
    }
  }
  ranges->resize(out);
}

size_t IvfIndex::CoveredItems(const std::vector<IvfProbeRange>& ranges) {
  size_t n = 0;
  for (const IvfProbeRange& r : ranges) {
    n += static_cast<size_t>(r.end - r.begin);
  }
  return n;
}

Status IvfIndex::QuantizedShortlist(
    UserId u, const std::vector<IvfProbeRange>& probes, size_t rerank_budget,
    const std::vector<bool>* excluded,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    std::vector<IvfProbeRange>* rerank_ranges, int64_t* survivors) const {
  rerank_ranges->clear();
  if (survivors != nullptr) *survivors = 0;
  CLAPF_CHECK(has_pq());
  if (probes.empty() || rerank_budget == 0) return Status::OK();

  // Per-query affine terms: lane_weights[l] multiplies the raw code, base
  // seeds every accumulator (see PqPrepareQuery).
  const int32_t d = num_factors_;
  thread_local std::vector<float> lane_weights;
  lane_weights.resize(static_cast<size_t>(d) + 1);
  const float base = PqPrepareQuery(pq_.book(), packed_.user_factors(u), d,
                                    lane_weights.data());

  // First pass: stream the codes over the probe ranges, keeping the top
  // `rerank_budget` candidates by quantized score under their LOCAL ids
  // (smaller local id on ties). Candidates live as packed uint64 keys end
  // to end (see PqPackCandidate) and selection is buffered instead of
  // heaped: the fused collect kernel appends keys at or above the current
  // bar, and the buffer is compacted whenever it fills. That is O(1)
  // amortized per scanned item — a streaming binary heap paid O(log
  // budget) per winning push and dominated the whole quantized stage at
  // serving budgets. The key order is the same (score desc, local asc)
  // total order the heap used, so the surviving SET is identical.
  // Strictly-below-the-bar candidates can never enter the kept set; ties
  // at the bar may still win on the smaller-id tie-break, so the kernel
  // keeps them for the compaction to cut.
  thread_local std::vector<uint64_t> cand;
  cand.clear();
  // Compact at a few multiples of the budget: large enough to amortize the
  // selection, small enough to stay cache-resident.
  const size_t cap =
      std::max<size_t>(rerank_budget * 4, static_cast<size_t>(1024));
  float bar = -std::numeric_limits<float>::infinity();
  // Compaction: radix-select the budget-th best key, then keep the keys at
  // or above it with one predicated pass. Keys are unique, so "at or
  // above the budget-th largest" is exactly the budget best — no
  // tie-trimming step, and neither pass has a data-dependent branch.
  const auto compact = [&] {
    const uint64_t bar_key =
        PqRadixSelect(cand.data(), cand.size(), rerank_budget);
    size_t w = 0;
    for (size_t i = 0; i < cand.size(); ++i) {
      const uint64_t k = cand[i];
      cand[w] = k;
      w += static_cast<size_t>(k >= bar_key);
    }
    cand.resize(w);
    bar = PqCandidateScore(bar_key);
  };
  // Excluded items must never consume budget, and the kernel is blind to
  // exclusions — so with exclusions in play each window collects into a
  // side scratch that is filtered while appending. The common no-exclusions
  // query collects straight into `cand`.
  thread_local std::vector<uint64_t> window_scratch;

  // Split the probe ranges into per-CLUSTER scan units, cut at
  // block-aligned boundaries (align-down of each interior cluster begin —
  // consecutive units share the cut, so the units tile the ranges exactly:
  // nothing is scanned twice, nothing is missed), and scan them
  // most-relevant first by centroid score — the same relevance
  // SelectProbes ranked clusters by. The final bar is almost always set by
  // the best cluster's items, so visiting it first collapses the candidate
  // volume every later unit emits AND hands the block-bound pruning below
  // a near-final bar for the rest of the scan. Unit granularity matters:
  // on clustered catalogs neighboring clusters sit adjacent in local id
  // order, so SelectProbes often merges most probes into one huge range —
  // ordering whole ranges degenerates to id-order scanning, which left the
  // bar loose for most of the scan and tripled first-pass cost. Scan order
  // cannot change the surviving set — selection is exact — only how much
  // the collect pass over-collects.
  struct ScanUnit {
    double score;
    ItemId lo;
    ItemId hi;
  };
  thread_local std::vector<ScanUnit> scan_order;
  scan_order.clear();
  const float* uf = packed_.user_factors(u);
  const int32_t ad = d + 2;
  for (const IvfProbeRange& r : probes) {
    CLAPF_CHECK(r.begin % kPackedBlockItems == 0);
    // First cluster whose range reaches past r.begin (block-aligned begins
    // may annex the tail of a neighboring cluster's block — its unit
    // collapses to empty below and the annexed items land in the first
    // chosen cluster's unit).
    int32_t c = static_cast<int32_t>(
        std::upper_bound(cluster_begin_.begin(), cluster_begin_.end(),
                         r.begin) -
        cluster_begin_.begin() - 1);
    c = std::max(c, 0);
    ItemId lo = r.begin;
    for (; c < num_clusters_ &&
           cluster_begin_[static_cast<size_t>(c)] < r.end;
         ++c) {
      const ItemId c_end = cluster_begin_[static_cast<size_t>(c) + 1];
      const ItemId hi =
          c_end >= r.end ? r.end
                         : std::max(lo, c_end - c_end % kPackedBlockItems);
      if (hi > lo) {
        const float* cen = centroids_.data() + static_cast<size_t>(c) * ad;
        double s = static_cast<double>(cen[0]);
        for (int32_t f = 0; f < d; ++f) {
          s += static_cast<double>(uf[f]) * static_cast<double>(cen[1 + f]);
        }
        scan_order.push_back({s, lo, hi});
        lo = hi;
      }
    }
  }
  std::sort(scan_order.begin(), scan_order.end(),
            [](const ScanUnit& a, const ScanUnit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.lo < b.lo;
            });
  FaultInjector& faults = FaultInjector::Instance();
  ItemId scanned = 0;
  Status scan_status = Status::OK();
  // Collects LOCAL items [lo, hi) — lo block-aligned — with no polling:
  // just the fused kernel, the exclusion filter, and the budget compaction.
  // Callers own the deadline/fault polls; the bound-pruned path below calls
  // this once per surviving run, and per-run clock reads were measurably
  // eating what the pruning saved.
  const auto collect_raw = [&](ItemId lo, ItemId hi) {
    if (excluded == nullptr) {
      PqScoreCollect(pq_.block_codes(), pq_.block_stride(), d,
                     lane_weights.data(), base, lo, hi, bar, &cand);
    } else {
      window_scratch.clear();
      PqScoreCollect(pq_.block_codes(), pq_.block_stride(), d,
                     lane_weights.data(), base, lo, hi, bar,
                     &window_scratch);
      for (const uint64_t k : window_scratch) {
        if ((*excluded)[static_cast<size_t>(
                local_to_global_[static_cast<size_t>(
                    PqCandidateLocal(k))])]) {
          continue;
        }
        cand.push_back(k);
      }
    }
    while (cand.size() >= cap && cand.size() > rerank_budget) compact();
    scanned += hi - lo;
  };
  // True when the deadline fired (scan_status then carries the error).
  const auto deadline_hit = [&] {
    if (!deadline || std::chrono::steady_clock::now() <= *deadline) {
      return false;
    }
    scan_status = Status::DeadlineExceeded(
        "pq query for user " + std::to_string(u) + " expired after scanning " +
        std::to_string(scanned) + " quantized candidates");
    return true;
  };
  // Windowed variant for un-bounded spans: deadline/fault polls every
  // kRankerBlockItems, matching the serving scan loops' poll granularity.
  const auto collect_span = [&](ItemId span_lo, ItemId span_hi) {
    for (ItemId lo = span_lo; lo < span_hi;) {
      const ItemId hi = std::min<ItemId>(
          span_hi, (lo / kRankerBlockItems + 1) * kRankerBlockItems);
      if (faults.armed() && faults.ShouldFire(FaultPoint::kServeSlowBlock)) {
        std::this_thread::sleep_for(kSlowBlockStall);
      }
      collect_raw(lo, hi);
      if (deadline_hit()) return false;
      lo = hi;
    }
    return true;
  };

  // Per-block upper-bound pruning (see PqCodes::bound_lane_max): once a
  // bar exists, each unit's corner blocks — per-lane extrema picked by the
  // query's lane-weight signs, 8 real blocks summarized per kernel block —
  // are scored through the SAME accumulation chain as real items
  // (PqScoreBoundBlocks reads each lane straight from the max or min
  // array, so there is no blend pass). IEEE rounding is monotone, so a
  // corner score is ≥ every kernel score inside its block bit-for-bit, and
  // a block whose corner score is strictly below the bar cannot contain a
  // survivor (ties at the bar keep the block). Surviving blocks merge into
  // runs so the collect kernel still streams contiguous spans, with the
  // next-but-one run prefetched while the current one is scored — short
  // scattered runs restart the hardware prefetcher's stride detection and
  // were costing back most of what the pruning saved. On the clustered
  // bench catalog the best-cluster-first bar prunes roughly half of all
  // probed blocks at nprobe 16; the bound pass itself touches 2 bytes per
  // lane per block — a quarter of the code bytes it saves rescanning.
  const int32_t lanes = d + 1;
  const std::size_t stride = pq_.block_stride();
  thread_local std::vector<const int8_t*> lane_base;
  lane_base.resize(static_cast<size_t>(lanes));
  for (int32_t l = 0; l < lanes; ++l) {
    lane_base[static_cast<size_t>(l)] =
        lane_weights[static_cast<size_t>(l)] >= 0.0f ? pq_.bound_lane_max()
                                                     : pq_.bound_lane_min();
  }
  thread_local std::vector<float> bound_scores;
  thread_local std::vector<IvfProbeRange> runs;
  const auto prefetch_run = [&](const IvfProbeRange& pr) {
    const char* p = reinterpret_cast<const char*>(
        pq_.block_codes() +
        static_cast<std::size_t>(pr.begin / kPackedBlockItems) * stride);
    const std::size_t bytes = std::min<std::size_t>(
        4096, static_cast<std::size_t>(
                  (pr.end - pr.begin + kPackedBlockItems - 1) /
                  kPackedBlockItems) *
                  stride);
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(p + off, 0, 3);
    }
  };

  for (const ScanUnit& unit : scan_order) {
    if (bar == -std::numeric_limits<float>::infinity()) {
      // No bar yet (before the first compaction): bounds cannot prune, so
      // skip straight to the scan.
      if (!collect_span(unit.lo, unit.hi)) return scan_status;
      continue;
    }
    const int32_t b0 = unit.lo / kPackedBlockItems;
    const int32_t b1 = (unit.hi + kPackedBlockItems - 1) / kPackedBlockItems;
    const int32_t sb0 = b0 / kPackedBlockItems;
    const int32_t nsb =
        (b1 + kPackedBlockItems - 1) / kPackedBlockItems - sb0;
    bound_scores.resize(static_cast<std::size_t>(nsb) * kPackedBlockItems);
    PqScoreBoundBlocks(lane_base.data(), stride, d, lane_weights.data(), base,
                       sb0, nsb, bound_scores.data());
    if (faults.armed() && faults.ShouldFire(FaultPoint::kServeSlowBlock)) {
      std::this_thread::sleep_for(kSlowBlockStall);
    }
    runs.clear();
    int32_t run_b = -1;
    for (int32_t b = b0; b <= b1; ++b) {
      const bool keep =
          b < b1 &&
          bound_scores[static_cast<std::size_t>(b - sb0 * kPackedBlockItems)] >=
              bar;
      if (keep) {
        if (run_b < 0) run_b = b;
        continue;
      }
      if (run_b >= 0) {
        runs.push_back({run_b * kPackedBlockItems,
                        std::min<ItemId>(unit.hi, b * kPackedBlockItems)});
        run_b = -1;
      }
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i + 2 < runs.size()) prefetch_run(runs[i + 2]);
      collect_raw(runs[i].begin, runs[i].end);
    }
    if (deadline_hit()) return scan_status;
  }
  if (cand.size() > rerank_budget) compact();

  // Survivors → merged block runs, clamped inside the probe ranges so the
  // re-rank never scores an item the plain ANN scan would not have (the
  // bit-identity contract at rerank_budget ≥ shortlist). Each survivor's
  // block lies in exactly one probe range: range begins are block-aligned
  // and SelectProbes merges ranges that touch, so a block never straddles
  // two of them.
  if (survivors != nullptr) *survivors = static_cast<int64_t>(cand.size());
  if (cand.empty()) return Status::OK();
  thread_local std::vector<ItemId> locals;
  locals.clear();
  locals.reserve(cand.size());
  for (const uint64_t k : cand) locals.push_back(PqCandidateLocal(k));
  std::sort(locals.begin(), locals.end());

  size_t p = 0;  // index into `probes`, advanced in lockstep with `locals`
  int32_t run_lo = -1, run_hi = -1;  // current run of consecutive blocks
  const auto flush = [&](ItemId range_end) {
    if (run_lo < 0) return;
    rerank_ranges->push_back(
        {run_lo * kPackedBlockItems,
         std::min<ItemId>(range_end, run_hi * kPackedBlockItems)});
    run_lo = run_hi = -1;
  };
  for (ItemId local : locals) {
    while (p < probes.size() && local >= probes[p].end) {
      flush(probes[p].end);
      ++p;
    }
    CLAPF_CHECK(p < probes.size() && local >= probes[p].begin);
    const int32_t b = local / kPackedBlockItems;
    if (run_lo < 0) {
      run_lo = b;
      run_hi = b + 1;
    } else if (b < run_hi) {
      // same block as the previous survivor
    } else if (b == run_hi) {
      run_hi = b + 1;
    } else {
      flush(probes[p].end);
      run_lo = b;
      run_hi = b + 1;
    }
  }
  if (p < probes.size()) flush(probes[p].end);
  return Status::OK();
}

size_t IvfIndex::memory_bytes() const {
  return packed_.memory_bytes() + pq_.memory_bytes() +
         centroids_.size() * sizeof(float) +
         (assignment_.size() + local_to_global_.size() +
          global_to_local_.size()) *
             sizeof(int32_t) +
         cluster_begin_.size() * sizeof(int32_t) +
         item_crc_.size() * sizeof(uint32_t);
}

Status IvfIndex::VerifyStructure(const std::string& context) const {
  const size_t n = static_cast<size_t>(num_items_);
  if (assignment_.size() != n || local_to_global_.size() != n ||
      global_to_local_.size() != n || item_crc_.size() != n ||
      cluster_begin_.size() != static_cast<size_t>(num_clusters_) + 1) {
    return Status::Corruption(context + ": ivf index table sizes inconsistent");
  }
  if (packed_.num_items() != num_items_ ||
      packed_.num_factors() != num_factors_) {
    return Status::Corruption(context +
                              ": ivf packed snapshot dimensions disagree");
  }
  if (cluster_begin_.front() != 0 ||
      cluster_begin_.back() != num_items_) {
    return Status::Corruption(context + ": ivf cluster offsets do not cover "
                                        "the catalog");
  }
  for (size_t c = 1; c < cluster_begin_.size(); ++c) {
    if (cluster_begin_[c] < cluster_begin_[c - 1]) {
      return Status::Corruption(context + ": ivf cluster offsets not "
                                          "monotone");
    }
  }
  std::vector<bool> seen(n, false);
  for (size_t l = 0; l < n; ++l) {
    const int32_t g = local_to_global_[l];
    if (g < 0 || static_cast<size_t>(g) >= n || seen[static_cast<size_t>(g)]) {
      return Status::Corruption(context +
                                ": ivf permutation is not a bijection");
    }
    seen[static_cast<size_t>(g)] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    const int32_t c = assignment_[i];
    if (c < 0 || c >= num_clusters_) {
      return Status::Corruption(context + ": ivf assignment out of range");
    }
  }
  if (options_.pq) {
    Status pq = pq_.VerifyGeometry(packed_, context);
    if (!pq.ok()) return pq;
  }
  return Status::OK();
}

void IvfIndex::DesyncForTesting() {
  if (local_to_global_.size() < 2) return;
  std::reverse(local_to_global_.begin(), local_to_global_.end());
  for (size_t l = 0; l < local_to_global_.size(); ++l) {
    global_to_local_[static_cast<size_t>(local_to_global_[l])] =
        static_cast<int32_t>(l);
  }
}

namespace {

// Catalog items per ground-truth tile: what a core's L2 holds (270 KiB at
// d = 32) while every user scans it.
constexpr ItemId kTruthTileItems = 2048;

// ExactTopKForUsers of `users` over `rows`' catalog, or with a `model` over
// its base-order repack, each tile repacked into the stripe's scratch. Each
// worker takes a contiguous stripe of tiles with its own accumulators; the
// stripes' lists then merge per user. The top-k under (score desc, id asc)
// is a function of the scored set alone, so the merged lists equal one full
// scan per user for any thread count.
std::vector<std::vector<ScoredItem>> TiledExactTopK(
    const FactorModel* model, const PackedSnapshot& rows,
    const std::vector<UserId>& users, size_t k, int threads) {
  std::vector<std::vector<ScoredItem>> lists(users.size());
  const int32_t n = model != nullptr ? model->num_items() : rows.num_items();
  if (users.empty() || n == 0 || k == 0) return lists;
  const int64_t num_tiles = (n + kTruthTileItems - 1) / kTruthTileItems;
  const int64_t stripes =
      std::max<int64_t>(1, std::min<int64_t>(threads, num_tiles));
  std::vector<std::vector<std::vector<ScoredItem>>> partial(
      static_cast<size_t>(stripes));
  ParallelForEach(stripes, static_cast<int>(stripes), [&](int64_t s) {
    std::vector<TopKAccumulator> accs(users.size(), TopKAccumulator(k));
    // The stripe's tile (user row x = users[x]) and its items' ids.
    std::optional<PackedSnapshot> tile;
    std::vector<int32_t> ids;
    if (model != nullptr) {
      tile = PackedSnapshot::Scratch(rows, users,
                                     kTruthTileItems / kPackedBlockItems);
      ids.resize(static_cast<size_t>(kTruthTileItems));
    }
    for (int64_t t = num_tiles * s / stripes;
         t < num_tiles * (s + 1) / stripes; ++t) {
      const ItemId begin = static_cast<ItemId>(t) * kTruthTileItems;
      const ItemId end = std::min<ItemId>(n, begin + kTruthTileItems);
      if (model == nullptr) {
        for (size_t x = 0; x < users.size(); ++x) {
          ScoreBlocksTopK(rows, users[x], begin, end, nullptr, &accs[x]);
        }
        continue;
      }
      tile->RepackItems(*model, begin, end - begin, 0);
      std::iota(ids.begin(), ids.end(), begin);
      for (size_t x = 0; x < users.size(); ++x) {
        ScoreBlocksTopKMapped(*tile, static_cast<UserId>(x), 0, end - begin,
                              ids.data(), nullptr, &accs[x]);
      }
    }
    auto& out = partial[static_cast<size_t>(s)];
    for (TopKAccumulator& acc : accs) out.push_back(acc.Take());
  });
  for (size_t x = 0; x < users.size(); ++x) {
    TopKAccumulator merged(k);
    for (const auto& stripe : partial) {
      for (const ScoredItem& it : stripe[x]) merged.Push(it.item, it.score);
    }
    lists[x] = merged.Take();
  }
  return lists;
}

}  // namespace

std::vector<std::vector<ScoredItem>> ExactTopKForUsers(
    const PackedSnapshot& exact, const std::vector<UserId>& users, size_t k,
    int threads) {
  return TiledExactTopK(nullptr, exact, users, k, threads);
}

std::vector<std::vector<ScoredItem>> ExactTopKForUsers(
    const FactorModel& model, const PackedSnapshot& rows,
    const std::vector<UserId>& users, size_t k, int threads) {
  CLAPF_CHECK(rows.num_factors() == model.num_factors());
  return TiledExactTopK(&model, rows, users, k, threads);
}

namespace {

// Recall@k of the path `index` serves — Retrieve through its probes at
// `nprobe`, through the quantized first pass at `rerank_budget` when `pq` —
// against `truth`, whose list x starts with the exact top-k of users[x]
// over the base-order snapshot of the same model (an independent ground
// truth, so a desynced permutation or code book scores low instead of
// agreeing with itself). Averages |retrieved ∩ exact| / k over the users.
// The ANN queries run in parallel over the index's build_threads and the
// per-user recalls are summed in user order, so the value is bit-identical
// for any thread count. `k` must be in [1, num_items].
double RecallAgainst(const IvfIndex& index, const std::vector<UserId>& users,
                     const std::vector<std::vector<ScoredItem>>& truth,
                     size_t k, int32_t nprobe, bool pq, size_t rerank_budget) {
  QueryOptions probe;
  probe.ann = true;
  probe.ann_nprobe = nprobe;
  probe.pq = pq;
  probe.rerank_budget = static_cast<int32_t>(rerank_budget);
  std::vector<double> recall(users.size());
  ParallelForEach(static_cast<int64_t>(users.size()),
                  index.options().build_threads, [&](int64_t x) {
    const size_t ux = static_cast<size_t>(x);
    // No deadline is passed, so the retrieval cannot fail.
    auto got = Retrieve({nullptr, nullptr, &index}, users[ux], k, nullptr, k,
                        probe, std::nullopt, nullptr, nullptr, nullptr);
    CLAPF_CHECK(got.ok());
    const size_t kept = std::min(k, truth[ux].size());
    std::vector<int32_t> truth_ids, got_ids;
    for (size_t r = 0; r < kept; ++r) truth_ids.push_back(truth[ux][r].item);
    for (const ScoredItem& s : *got) got_ids.push_back(s.item);
    std::sort(truth_ids.begin(), truth_ids.end());
    std::sort(got_ids.begin(), got_ids.end());
    std::vector<int32_t> both;
    std::set_intersection(truth_ids.begin(), truth_ids.end(), got_ids.begin(),
                          got_ids.end(), std::back_inserter(both));
    recall[ux] = static_cast<double>(both.size()) /
                 static_cast<double>(truth_ids.size());
  });
  double recall_sum = 0.0;
  for (double r : recall) recall_sum += r;
  return recall_sum / static_cast<double>(users.size());
}

// The measured recall of the path `index` serves over the
// GateSampleUsers(num_users, sample_users) users of a catalog of
// `num_items` items: 0.0 when the index cannot serve it (missing codes,
// dimensions that disagree), 1.0 for an empty catalog or sample. `truth`
// (may be null) holds each sampled user's exact top-j, j >= min(k, n);
// null computes the top-k over `exact` with one tiled pass of
// ExactTopKForUsers over the index's build_threads.
double MeasureRecall(int32_t num_users, int32_t num_items,
                     const IvfIndex& index, int32_t sample_users, size_t k,
                     int32_t nprobe, bool pq, size_t rerank_budget,
                     const PackedSnapshot* exact,
                     const std::vector<std::vector<ScoredItem>>* truth) {
  if ((pq && !index.has_pq()) || num_items != index.num_items() ||
      num_users != index.packed().num_users()) {
    return 0.0;
  }
  const std::vector<UserId> users = GateSampleUsers(num_users, sample_users);
  if (num_items == 0 || users.empty()) return 1.0;
  k = std::min(k, static_cast<size_t>(num_items));
  if (k == 0) return 1.0;
  if (truth != nullptr) {
    return RecallAgainst(index, users, *truth, k, nprobe, pq, rerank_budget);
  }
  return RecallAgainst(
      index, users,
      ExactTopKForUsers(*exact, users, k, index.options().build_threads), k,
      nprobe, pq, rerank_budget);
}

// VerifyAnnRecall against the given (or, when null, a ground truth freshly
// computed over `exact`).
Status CheckAnnRecall(int32_t num_users, int32_t num_items,
                      const IvfIndex& index, int32_t sample_users, size_t k,
                      int32_t nprobe, size_t rerank_budget, double floor,
                      const std::string& context, const PackedSnapshot* exact,
                      const std::vector<std::vector<ScoredItem>>* truth) {
  const bool pq = index.options().pq;
  if (pq && !index.has_pq()) {
    return Status::FailedPrecondition(
        context + ": ivf pq recall gate requires a code book but the index "
                  "carries none (or it is desynced from the catalog)");
  }
  if (num_items != index.num_items()) {
    return Status::FailedPrecondition(
        context + ": ivf recall probe dimensions disagree (exact " +
        std::to_string(num_items) + " items, index " +
        std::to_string(index.num_items()) + ")");
  }
  const double recall =
      MeasureRecall(num_users, num_items, index, sample_users, k, nprobe, pq,
                    rerank_budget, exact, truth);
  if (recall < floor) {
    return Status::FailedPrecondition(
        context + ": ivf " + (pq ? "pq composed " : "") +
        "measured recall@" + std::to_string(k) + " = " +
        std::to_string(recall) + " at nprobe=" + std::to_string(nprobe) +
        " below the contract floor " + std::to_string(floor));
  }
  return Status::OK();
}

// Blocks per ScoreBlocks call when the delta truth re-scores dirty items.
constexpr int32_t kRescoreRunBlocks = 64;

// The recall truth of `stamp`'s gate over the base-order repack of
// `model`: each sampled user's exact top-min(2k, n), user rows from
// `served` (the candidate's float copy). A user starts from the baseline's
// list when the baseline truth carries this stamp, `delta` (the
// candidate's dirty items against the baseline model) is known, and the
// user's row in `served` equals its row in the baseline's served copy:
// every clean item then has the bytes, and so the score, it had when that
// list was made. A clean item missing from the old list ranks below each
// clean item in it, so the old list without the dirty items, plus the
// dirty items re-scored, holds the exact top-j for j = the clean entries
// kept. That is exact for the gate while j >= k, and the new list keeps
// those j; below k the user is scanned in full, as is every user the
// baseline cannot serve. The dirty items' base-order blocks are repacked
// from the doubles once, back to back, and scored with ScoreBlocks, the
// kernel ScoreBlocksTopK runs, so each float equals the full scan's.
RecallTruth GateTruth(const FactorModel& model, const PackedSnapshot& served,
                      RecallTruth stamp, const GateBaseline* baseline,
                      const ItemDelta* delta, int threads) {
  const std::vector<UserId> users =
      GateSampleUsers(stamp.num_users, stamp.sample_users);
  const size_t k = stamp.k;
  const int32_t n = model.num_items();
  const size_t keep = std::min(2 * k, static_cast<size_t>(std::max(n, 0)));
  stamp.lists.assign(users.size(), {});
  const RecallTruth* old =
      baseline != nullptr && delta != nullptr ? baseline->truth : nullptr;
  const PackedSnapshot* old_served =
      baseline != nullptr ? baseline->served : nullptr;
  const bool applies =
      old != nullptr && old_served != nullptr && old->kernel == stamp.kernel &&
      old->sample_users == stamp.sample_users && old->k == k &&
      old->num_users == stamp.num_users && old->num_items == stamp.num_items &&
      old->num_factors == stamp.num_factors &&
      old->use_item_bias == stamp.use_item_bias &&
      old->lists.size() == users.size() &&
      old_served->num_users() == served.num_users() &&
      old_served->num_factors() == served.num_factors();
  std::vector<uint8_t> from_old(users.size(), 0);
  if (applies && k > 0) {
    // Runs of consecutive dirty blocks, each scored with one call; run r's
    // blocks sit at [at, at + blocks) of the repacked dirty blocks.
    struct Run {
      int32_t first_block = 0;
      int32_t blocks = 0;
      int32_t at = 0;
      size_t first_item = 0;  // into delta->items
      size_t end_item = 0;
    };
    std::vector<Run> runs;
    int32_t dirty_blocks = 0;
    for (size_t x = 0; x < delta->items.size(); ++x) {
      const int32_t b = delta->items[x] / kPackedBlockItems;
      if (!runs.empty()) {
        Run& last = runs.back();
        const int32_t last_block = last.first_block + last.blocks - 1;
        if (b == last_block) {
          last.end_item = x + 1;
          continue;
        }
        if (b == last_block + 1 && last.blocks < kRescoreRunBlocks) {
          ++last.blocks;
          ++dirty_blocks;
          last.end_item = x + 1;
          continue;
        }
      }
      runs.push_back({b, 1, dirty_blocks, x, x + 1});
      ++dirty_blocks;
    }
    PackedSnapshot repacked = PackedSnapshot::Scratch(served, users,
                                                      dirty_blocks);
    ParallelForEach(static_cast<int64_t>(runs.size()), threads,
                    [&](int64_t r) {
      const Run& run = runs[static_cast<size_t>(r)];
      const ItemId begin = run.first_block * kPackedBlockItems;
      const ItemId end = std::min<ItemId>(
          n, (run.first_block + run.blocks) * kPackedBlockItems);
      repacked.RepackItems(model, begin, end - begin, run.at);
    });
    const size_t d = static_cast<size_t>(served.num_factors());
    ParallelForEach(static_cast<int64_t>(users.size()), threads,
                    [&](int64_t x) {
      const size_t ux = static_cast<size_t>(x);
      const UserId u = users[ux];
      if (std::memcmp(served.user_factors(u), old_served->user_factors(u),
                      d * sizeof(float)) != 0) {
        return;
      }
      std::vector<ScoredItem> clean;
      for (const ScoredItem& e : old->lists[ux]) {
        if (!std::binary_search(delta->items.begin(), delta->items.end(),
                                e.item)) {
          clean.push_back(e);
        }
      }
      if (clean.size() < k) return;
      TopKAccumulator acc(clean.size());
      for (const ScoredItem& e : clean) acc.Push(e.item, e.score);
      float buf[kRescoreRunBlocks * kPackedBlockItems];
      for (const Run& run : runs) {
        ScoreBlocks(repacked, static_cast<UserId>(x), run.at, run.blocks,
                    buf);
        const ItemId base = run.first_block * kPackedBlockItems;
        for (size_t i = run.first_item; i < run.end_item; ++i) {
          const ItemId item = delta->items[i];
          acc.Push(item, static_cast<double>(buf[item - base]));
        }
      }
      stamp.lists[ux] = acc.Take();
      from_old[ux] = 1;
    });
  }
  std::vector<UserId> scan;
  for (size_t ux = 0; ux < users.size(); ++ux) {
    if (from_old[ux] == 0) scan.push_back(users[ux]);
  }
  std::vector<std::vector<ScoredItem>> scanned =
      ExactTopKForUsers(model, served, scan, keep, threads);
  for (size_t ux = 0, next = 0; ux < users.size(); ++ux) {
    if (from_old[ux] == 0) stamp.lists[ux] = std::move(scanned[next++]);
  }
  return stamp;
}

}  // namespace

double MeasureIvfRecall(const PackedSnapshot& exact, const IvfIndex& index,
                        int32_t sample_users, size_t k, int32_t nprobe) {
  return MeasureRecall(exact.num_users(), exact.num_items(), index,
                       sample_users, k, nprobe, /*pq=*/false, 0, &exact,
                       nullptr);
}

double MeasurePqRecall(const PackedSnapshot& exact, const IvfIndex& index,
                       int32_t sample_users, size_t k, int32_t nprobe,
                       size_t rerank_budget) {
  return MeasureRecall(exact.num_users(), exact.num_items(), index,
                       sample_users, k, nprobe, /*pq=*/true, rerank_budget,
                       &exact, nullptr);
}

Status VerifyAnnRecall(const PackedSnapshot& exact, const IvfIndex& index,
                       int32_t sample_users, size_t k, int32_t nprobe,
                       size_t rerank_budget, double floor,
                       const std::string& context) {
  return CheckAnnRecall(exact.num_users(), exact.num_items(), index,
                        sample_users, k, nprobe, rerank_budget, floor,
                        context, &exact, nullptr);
}

Result<std::shared_ptr<const IvfIndex>> BuildGatedIvf(
    const FactorModel& model, const IvfGateOptions& options,
    const IvfIndex* previous, const std::string& context,
    MetricsRegistry* metrics, const GateBaseline* baseline,
    RecallTruth* truth, const IvfRepackCheck& check_repack) {
  std::shared_ptr<IvfIndex> ivf;  // mutable only for the drills below
  TraceSpan build_span(options.build_us);
  IvfBuildPhases phases;  // summed over the rebuild and the build that ran
  const auto add_phases = [&phases](const IvfBuildPhases& p) {
    phases.kmeans_us += p.kmeans_us;
    phases.assign_us += p.assign_us;
    phases.repack_us += p.repack_us;
    phases.encode_us += p.encode_us;
  };
  bool trained = false;
  // The candidate's dirty items against the model the previous index was
  // built from: the one dirty set the rebuild, `check_repack` and the
  // recall truth share.
  std::optional<ItemDelta> delta;
  if (previous != nullptr && baseline != nullptr &&
      baseline->model != nullptr &&
      baseline->model->num_factors() == model.num_factors() &&
      baseline->model->use_item_bias() == model.use_item_bias() &&
      baseline->model->num_items() <= model.num_items()) {
    Stopwatch diff;
    delta = DiffItems(model, *baseline->model, options.ivf.build_threads);
    phases.assign_us += diff.ElapsedMicros();
  }
  if (previous != nullptr) {
    int64_t reassigned = 0;
    IvfBuildPhases rebuild_phases;
    auto rebuilt = IvfIndex::RebuildDirty(*previous, model, options.ivf,
                                          &reassigned, &rebuild_phases,
                                          delta ? &*delta : nullptr);
    add_phases(rebuild_phases);
    // A majority-dirty republish means the catalog's geometry moved out
    // from under the frozen centroids, and measured recall would pay for
    // the stale partition: retrain from scratch instead. Incremental
    // reassignment only wins when the republish is a sliver.
    if (rebuilt.ok() && 2 * reassigned <= model.num_items()) {
      ivf = std::make_shared<IvfIndex>(std::move(rebuilt).value());
      if (metrics != nullptr) {
        metrics->GetCounter("ann.index_rebuilds_incremental_total")->Inc();
        metrics->GetCounter("ann.index_items_reassigned_total")
            ->Inc(reassigned);
      }
    }
  }
  if (ivf == nullptr) {
    IvfBuildPhases build_phases;
    ivf = std::make_shared<IvfIndex>(
        IvfIndex::Build(model, options.ivf, &build_phases));
    add_phases(build_phases);
    trained = true;
    if (metrics != nullptr) {
      metrics->GetCounter("ann.index_builds_total")->Inc();
    }
  }
  const auto record = [](Histogram* sink, double us) {
    if (sink != nullptr) sink->Record(us);
  };
  if (trained) record(options.kmeans_us, phases.kmeans_us);
  record(options.assign_us, phases.assign_us);
  record(options.repack_us, phases.repack_us);
  if (options.ivf.pq) record(options.encode_us, phases.encode_us);
  build_span.Stop();
  if (check_repack) {
    // The repack as built: before any drill below scrambles the index.
    CLAPF_RETURN_IF_ERROR(check_repack(*ivf, delta ? &*delta : nullptr));
  }
  FaultInjector& faults = FaultInjector::Instance();
  if (faults.armed() && faults.ShouldFire(FaultPoint::kAnnCorruptIndex)) {
    // Desync drill: the armed hit schedule picks which build (which shard's
    // index) is scrambled, and only that build's gate must refuse.
    ivf->DesyncForTesting();
  }
  if (options.ivf.pq && faults.armed() &&
      faults.ShouldFire(FaultPoint::kAnnCorruptCodes)) {
    // Code-book drill: geometry and floats stay intact, so only the
    // measured composed-recall gate below can catch it.
    ivf->CorruptPqForTesting();
  }
  std::shared_ptr<const IvfIndex> built = std::move(ivf);
  TraceSpan gate_span(options.gate_us);
  // The index was built from this model's bytes above, so its per-item
  // CRCs need no re-check; its dimensions and structure must hold, and the
  // measured recall@k of the path it serves (the composed quantized +
  // re-rank path when it carries codes: the strictly stronger check, and
  // the only one that catches a corrupted code book or a desynced
  // permutation) must clear the floor.
  Status gate = Status::OK();
  if (model.num_items() != built->num_items() ||
      model.num_factors() != built->num_factors()) {
    gate = Status::FailedPrecondition(
        context + ": ivf index dimensions disagree with the model (index " +
        std::to_string(built->num_items()) + "x" +
        std::to_string(built->num_factors()) + ", model " +
        std::to_string(model.num_items()) + "x" +
        std::to_string(model.num_factors()) + ")");
  }
  if (gate.ok()) gate = built->VerifyStructure(context);
  if (gate.ok() && options.recall_floor > 0.0) {
    const size_t k = kGateRecallK;
    RecallTruth stamp;
    stamp.kernel = ActiveScoreKernel();
    stamp.sample_users = options.recall_users;
    stamp.k = std::min(k, static_cast<size_t>(model.num_items()));
    stamp.num_users = model.num_users();
    stamp.num_items = model.num_items();
    stamp.num_factors = model.num_factors();
    stamp.use_item_bias = model.use_item_bias();
    RecallTruth ran = GateTruth(model, built->packed(), std::move(stamp),
                                baseline, delta ? &*delta : nullptr,
                                options.ivf.build_threads);
    gate = CheckAnnRecall(model.num_users(), model.num_items(), *built,
                          options.recall_users, k, /*nprobe=*/0,
                          /*rerank_budget=*/0, options.recall_floor, context,
                          nullptr, &ran.lists);
    if (gate.ok() && truth != nullptr) *truth = std::move(ran);
  }
  if (metrics != nullptr) {
    metrics
        ->GetCounter(gate.ok() ? "ann.recall_gate_pass_total"
                               : "ann.recall_gate_fail_total")
        ->Inc();
  }
  if (!gate.ok()) return gate;
  return built;
}

}  // namespace clapf

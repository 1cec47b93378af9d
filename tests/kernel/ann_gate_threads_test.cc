// Thread-count invariance of the ANN publish gate. The recall gate's ground
// truth is one tiled pass over the catalog split into per-thread stripes,
// and its ANN queries run in parallel; none of that may move a verdict. On
// a tie-heavy catalog whose duplicate top items straddle the tile and
// stripe boundaries, and with k beyond the catalog, the ground-truth lists
// must equal a full scan per user, and the measured recalls must be
// bit-identical at build_threads 1, 2 and 4 (and to a plain per-user
// reference). Over publish sequences, the gate whose ground truth starts
// from the serving slice's kept lists must return the full gate's Status
// at every thread count. Part of the `ann` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/serving/model_shard.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/random.h"
#include "testing/test_util.h"

namespace clapf {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

// Items draw their factors from four prototypes and their bias from {0, 1},
// so most scores tie. Items [2040, 2056) and [4090, 4102) share one
// prototype with a bias far above every other score: for every user they
// are the top 28, all tied, and they sit across the 2048- and 4096-item
// boundaries where the ground truth's tiles and stripes meet.
FactorModel TieHeavyCatalog(int32_t users, int32_t items, int32_t d,
                            uint64_t seed) {
  FactorModel model(users, items, d, /*use_item_bias=*/true);
  Rng rng(seed);
  std::vector<std::vector<double>> prototypes(4, std::vector<double>(d));
  for (auto& p : prototypes) {
    for (double& x : p) x = std::floor(rng.NextDouble() * 3.0) - 1.0;
  }
  for (UserId u = 0; u < users; ++u) {
    for (double& x : model.UserFactors(u)) {
      x = std::floor(rng.NextDouble() * 3.0) - 1.0;
    }
  }
  for (ItemId i = 0; i < items; ++i) {
    const bool top = (i >= 2040 && i < 2056) || (i >= 4090 && i < 4102);
    const auto& p = prototypes[top ? 0 : rng.Uniform(prototypes.size())];
    std::copy(p.begin(), p.end(), model.ItemFactors(i).begin());
    model.ItemBias(i) = top ? 1000.0 : std::floor(rng.NextDouble() * 2.0);
  }
  return model;
}

std::vector<ScoredItem> FullScan(const PackedSnapshot& exact, UserId u,
                                 size_t k) {
  TopKAccumulator acc(k);
  ScoreBlocksTopK(exact, u, 0, exact.num_items(), nullptr, &acc);
  return acc.Take();
}

void ExpectSameLists(const std::vector<ScoredItem>& want,
                     const std::vector<ScoredItem>& got,
                     const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(want[r].item, got[r].item) << what << " rank " << r;
    EXPECT_EQ(want[r].score, got[r].score) << what << " rank " << r;
  }
}

// The recall measurement done plainly: per sampled user, one full scan and
// one Retrieve through the index, recalls summed in user order.
double ReferenceRecall(const PackedSnapshot& exact, const IvfIndex& index,
                       int32_t sample_users, size_t k, int32_t nprobe,
                       bool pq, int32_t rerank_budget) {
  k = std::min(k, static_cast<size_t>(exact.num_items()));
  QueryOptions probe;
  probe.ann = true;
  probe.ann_nprobe = nprobe;
  probe.pq = pq;
  probe.rerank_budget = rerank_budget;
  const int32_t stride = std::max(
      1, exact.num_users() / std::min(sample_users, exact.num_users()));
  double sum = 0.0;
  int32_t users = 0;
  for (UserId u = 0; u < exact.num_users(); u += stride) {
    auto got = Retrieve({nullptr, nullptr, &index}, u, k, nullptr, k, probe,
                        std::nullopt, nullptr, nullptr, nullptr);
    EXPECT_TRUE(got.ok());
    std::vector<int32_t> truth_ids, got_ids, both;
    for (const ScoredItem& s : FullScan(exact, u, k)) {
      truth_ids.push_back(s.item);
    }
    for (const ScoredItem& s : *got) got_ids.push_back(s.item);
    std::sort(truth_ids.begin(), truth_ids.end());
    std::sort(got_ids.begin(), got_ids.end());
    std::set_intersection(truth_ids.begin(), truth_ids.end(), got_ids.begin(),
                          got_ids.end(), std::back_inserter(both));
    sum += static_cast<double>(both.size()) /
           static_cast<double>(truth_ids.size());
    ++users;
  }
  return sum / users;
}

TEST(AnnGateThreadsTest, GroundTruthEqualsFullScanAcrossTileBoundaries) {
  const FactorModel model = TieHeavyCatalog(12, 5000, 6, 3);
  const PackedSnapshot exact = PackedSnapshot::Build(model);
  std::vector<UserId> users(12);
  for (UserId u = 0; u < 12; ++u) users[static_cast<size_t>(u)] = u;
  for (size_t k : {1u, 10u, 20u, 50u}) {
    for (int threads : {1, 2, 3, 4}) {
      const auto lists = ExactTopKForUsers(exact, users, k, threads);
      ASSERT_EQ(lists.size(), users.size());
      for (UserId u : users) {
        ExpectSameLists(FullScan(exact, u, k),
                        lists[static_cast<size_t>(u)],
                        "k " + std::to_string(k) + " threads " +
                            std::to_string(threads) + " user " +
                            std::to_string(u));
      }
    }
  }
  // The tied block decides the head of every list by item id alone.
  const auto lists = ExactTopKForUsers(exact, {0}, 20, 4);
  EXPECT_EQ(lists[0].front().item, 2040);
  EXPECT_EQ(lists[0][8].item, 2048);
  EXPECT_EQ(lists[0].back().item, 4093);
}

TEST(AnnGateThreadsTest, KBeyondTheCatalogReturnsEveryItem) {
  const FactorModel model = TieHeavyCatalog(6, 37, 4, 5);
  const PackedSnapshot exact = PackedSnapshot::Build(model);
  for (int threads : kThreadCounts) {
    const auto lists = ExactTopKForUsers(exact, {0, 3, 5}, 50, threads);
    ASSERT_EQ(lists.size(), 3u);
    ExpectSameLists(FullScan(exact, 3, 50), lists[1],
                    "threads " + std::to_string(threads));
    EXPECT_EQ(lists[1].size(), 37u);
  }
  std::vector<double> recalls;
  for (int threads : kThreadCounts) {
    IvfOptions options;
    options.num_clusters = 4;
    options.pq = true;
    options.build_threads = threads;
    const IvfIndex index = IvfIndex::Build(model, options);
    recalls.push_back(MeasureIvfRecall(exact, index, 64, 50, 1));
    recalls.push_back(MeasurePqRecall(exact, index, 64, 50, 1, 8));
  }
  for (double r : recalls) EXPECT_EQ(r, 1.0);
}

TEST(AnnGateThreadsTest, MeasuredRecallIsBitIdenticalAtEveryThreadCount) {
  // k = 40 on the tie-heavy catalog reaches past the 28 tied top items
  // into the ties below them; narrow probes keep both recalls below 1.
  const FactorModel tie_heavy = TieHeavyCatalog(70, 5000, 6, 7);
  const FactorModel clustered =
      testing::MakeClusteredItemModel(70, 5000, 8, 12, 0.3, 11);
  const std::pair<const FactorModel*, size_t> kCases[] = {{&tie_heavy, 40},
                                                          {&clustered, 10}};
  for (const auto& [model, k] : kCases) {
    const PackedSnapshot exact = PackedSnapshot::Build(*model);
    IvfOptions options;
    options.num_clusters = 24;
    options.pq = true;
    options.build_threads = 1;
    const IvfIndex serial = IvfIndex::Build(*model, options);
    const double want_ivf = ReferenceRecall(exact, serial, 64, k, 1, false, 0);
    const double want_pq = ReferenceRecall(exact, serial, 64, k, 1, true, 48);
    EXPECT_LT(want_ivf, 1.0);
    EXPECT_LT(want_pq, 1.0);
    for (int threads : kThreadCounts) {
      options.build_threads = threads;
      const IvfIndex index = IvfIndex::Build(*model, options);
      EXPECT_EQ(MeasureIvfRecall(exact, index, 64, k, 1), want_ivf)
          << "k " << k << " threads " << threads;
      EXPECT_EQ(MeasurePqRecall(exact, index, 64, k, 1, 48), want_pq)
          << "k " << k << " threads " << threads;
    }
  }
}

// A serving chain per shard, advanced the way a server advances it: every
// candidate's slice is gated once against the serving slice as it is (the
// recall truth starting from the slice's kept lists) and once against a
// copy that kept no truth (the full scan), and a candidate's slices are
// adopted only when every shard passed. The two gates must return the same
// Status — code and message, which carries the measured recall of a
// refused index — and the lists a slice keeps must be exact top lists of
// its catalog, whose first k are the full gate's. The sequence covers
// drift of 0.1%-60% of the items, moved user rows (sampled users
// included), a kernel switch, and refused candidates in between, at 1 and
// 3 shards.
TEST(AnnGateThreadsTest, DeltaTruthGateEqualsTheFullGateOverPublishSequences) {
  constexpr int32_t kUsers = 40, kItems = 1203, kFactors = 8;
  constexpr size_t kK = kGateRecallK;
  const Dataset history =
      testing::MakeLearnableDataset(kUsers, kItems, 8, 301);
  const std::vector<double> popularity(kItems, 1.0);
  const ScoreKernel other = ActiveScoreKernel() == ScoreKernel::kAvx2
                                ? ScoreKernel::kPortable
                                : ScoreKernel::kAvx2;
  const std::vector<UserId> users = GateSampleUsers(kUsers, 16);
  const double kFractions[] = {0.001, 0.01, 0.05, 0.2, 0.6};
  for (int threads : kThreadCounts) {
    for (int32_t num_shards : {1, 3}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " shards " +
                   std::to_string(num_shards));
      std::vector<ModelShard> shards;
      for (int32_t s = 0; s < num_shards; ++s) {
        shards.emplace_back(s, kItems * s / num_shards,
                            kItems * (s + 1) / num_shards, history,
                            popularity);
      }
      IvfGateOptions gate;
      gate.ivf.pq = threads != 2;  // the composed gate and the plain one
      gate.ivf.build_threads = threads;
      gate.recall_users = 16;
      gate.recall_floor = 0.8;
      FactorModel serving_model = testing::MakeClusteredItemModel(
          kUsers, kItems, kFactors, 8, 0.05, 302);
      std::vector<std::shared_ptr<const ShardSlice>> serving;
      for (const ModelShard& shard : shards) {
        auto slice = shard.BuildSliceFrom(serving_model, true, false, 0,
                                          "seed", &gate);
        ASSERT_TRUE(slice.ok()) << slice.status().ToString();
        serving.push_back(*slice);
      }
      Rng rng(303 + static_cast<uint64_t>(threads));
      int adopted = 0;
      for (int step = 0; step < 10; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        FactorModel cand = serving_model;
        const double fraction = kFractions[step % 5];
        for (ItemId i = 0; i < kItems; ++i) {
          if (rng.NextDouble() >= fraction) continue;
          cand.ItemFactors(i)[static_cast<size_t>(i % kFactors)] +=
              0.05 * rng.NextGaussian();
          cand.ItemBias(i) += 0.01 * rng.NextGaussian();
        }
        cand.ItemFactors((step * 97) % kItems)[0] += 0.01;
        if (step % 4 == 1) {
          for (UserId u : {0, 2, 5}) cand.UserFactors(u)[0] += 0.3;
        }
        const bool switch_kernel = step == 6 && ScoreKernelSupported(other);
        const bool refuse = step % 5 == 2;
        if (switch_kernel) ForceScoreKernel(other);
        bool all_passed = true;
        std::vector<std::shared_ptr<const ShardSlice>> next;
        for (size_t s = 0; s < shards.size(); ++s) {
          if (refuse) FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex);
          auto delta = shards[s].BuildSliceFrom(cand, true, false, 0, "cand",
                                                &gate, serving[s].get());
          ShardSlice no_truth = *serving[s];
          no_truth.recall_truth.reset();
          if (refuse) FaultInjector::Instance().Arm(FaultPoint::kAnnCorruptIndex);
          auto full = shards[s].BuildSliceFrom(cand, true, false, 0, "cand",
                                               &gate, &no_truth);
          FaultInjector::Instance().Reset();
          ASSERT_EQ(delta.ok(), full.ok()) << delta.status().ToString();
          if (!delta.ok()) {
            EXPECT_EQ(delta.status().code(), full.status().code());
            EXPECT_EQ(delta.status().message(), full.status().message());
            all_passed = false;
            continue;
          }
          const ShardSlice& got = **delta;
          ASSERT_TRUE(got.recall_truth.has_value());
          ASSERT_TRUE((*full)->recall_truth.has_value());
          const auto& lists = got.recall_truth->lists;
          const auto& full_lists = (*full)->recall_truth->lists;
          ASSERT_EQ(lists.size(), users.size());
          // The reference: a base-order repack of the slice's model, which
          // no ANN slice holds.
          const PackedSnapshot base_order = PackedSnapshot::Build(got.model);
          for (size_t x = 0; x < users.size(); ++x) {
            const std::string what = "user " + std::to_string(users[x]);
            ASSERT_GE(lists[x].size(), kK) << what;
            ExpectSameLists(FullScan(base_order, users[x], lists[x].size()),
                            lists[x], what);
            ExpectSameLists(
                std::vector<ScoredItem>(full_lists[x].begin(),
                                        full_lists[x].begin() + kK),
                std::vector<ScoredItem>(lists[x].begin(),
                                        lists[x].begin() + kK),
                what);
          }
          next.push_back(*delta);
        }
        if (switch_kernel) ClearScoreKernelOverride();
        if (all_passed) {
          serving = std::move(next);
          serving_model = std::move(cand);
          ++adopted;
        }
        EXPECT_EQ(all_passed, !refuse);
      }
      EXPECT_EQ(adopted, 8);
    }
  }
}

}  // namespace
}  // namespace clapf

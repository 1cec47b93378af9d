// Google-benchmark microbenchmarks for the per-operation costs the paper's
// complexity analysis (§4.3) talks about: sampler draws, single SGD steps,
// full-item scoring, and top-k selection.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "clapf/util/logging.h"

#include "clapf/baselines/bpr.h"
#include "clapf/core/clapf_trainer.h"
#include "clapf/core/divergence_guard.h"
#include "clapf/core/smoothing.h"
#include "clapf/data/split.h"
#include "clapf/data/synthetic.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/obs/metrics.h"
#include "clapf/obs/trace_span.h"
#include "clapf/online/online_trainer.h"
#include "clapf/online/wal.h"
#include "clapf/sampling/dss_sampler.h"
#include "clapf/sampling/rank_list.h"
#include "clapf/sampling/uniform_sampler.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/linalg.h"
#include "clapf/util/math.h"
#include "clapf/util/top_k.h"

namespace clapf {
namespace {

Dataset BenchData(int32_t users, int32_t items, int64_t pairs) {
  SyntheticConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.num_interactions = pairs;
  cfg.seed = 99;
  return *GenerateSynthetic(cfg);
}

void BM_Sigmoid(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = Sigmoid(x) - 0.4);
  }
}
BENCHMARK(BM_Sigmoid);

void BM_LogSigmoid(benchmark::State& state) {
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = LogSigmoid(x) * 0.01);
  }
}
BENCHMARK(BM_LogSigmoid);

void BM_UniformTripleSample(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  UniformTripleSampler sampler(&data, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample());
  }
}
BENCHMARK(BM_UniformTripleSample);

void BM_DssTripleSample(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  static FactorModel model = [] {
    FactorModel m(500, 2000, 20);
    Rng rng(7);
    m.InitGaussian(rng, 0.1);
    return m;
  }();
  DssOptions options;
  DssSampler sampler(&data, &model, options, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample());
  }
}
BENCHMARK(BM_DssTripleSample);

// One rank-list refresh: all d = 20 factor columns of an m-item Gaussian
// catalog ranked. m = 3952 is the train_clapf (ML1M-sim) catalog.
void BM_FactorRankListRefresh(benchmark::State& state) {
  const int32_t m = static_cast<int32_t>(state.range(0));
  FactorModel model(1, m, 20);
  Rng rng(11);
  model.InitGaussian(rng, 0.1);
  FactorRankList list(&model);
  for (auto _ : state) {
    list.Refresh();
    benchmark::DoNotOptimize(list.ItemAt(0, 0, false));
  }
  state.SetItemsProcessed(state.iterations() * m * 20);
}
BENCHMARK(BM_FactorRankListRefresh)
    ->Arg(3952)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// One CLAPF SGD iteration end-to-end (sample + gradient), the unit of the
// O(T·d) analysis, as a function of latent dimension d.
void BM_ClapfSgdIteration(benchmark::State& state) {
  const int32_t d = static_cast<int32_t>(state.range(0));
  static Dataset data = BenchData(500, 2000, 25000);
  TrainTestSplit split = SplitRandom(data, 0.5, 2);
  ClapfOptions options;
  options.sgd.num_factors = d;
  options.sgd.iterations = 1;  // warm start the model via a 1-step train
  ClapfTrainer trainer(options);
  CLAPF_CHECK_OK(trainer.Train(split.train));

  // Measure steady-state steps by re-training in chunks.
  for (auto _ : state) {
    state.PauseTiming();
    ClapfOptions opts = options;
    opts.sgd.iterations = 1000;
    ClapfTrainer chunk(opts);
    state.ResumeTiming();
    CLAPF_CHECK_OK(chunk.Train(split.train));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ClapfSgdIteration)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

// Divergence-guard overhead on the BPR hot loop: Arg(0) trains with the
// guard off, Arg(1) with kHalt monitoring at the default check interval.
// The acceptance bar is <5% per-iteration overhead between the two.
void BM_BprSgdIterationGuard(benchmark::State& state) {
  const bool guarded = state.range(0) != 0;
  static Dataset data = BenchData(500, 2000, 25000);
  BprOptions options;
  options.sgd.num_factors = 20;
  options.sgd.divergence.policy =
      guarded ? DivergencePolicy::kHalt : DivergencePolicy::kOff;
  for (auto _ : state) {
    state.PauseTiming();
    BprOptions opts = options;
    opts.sgd.iterations = 20000;
    BprTrainer chunk(opts);
    state.ResumeTiming();
    CLAPF_CHECK_OK(chunk.Train(data));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_BprSgdIterationGuard)->Arg(0)->Arg(1);

// Observability overhead on the BPR hot loop: Arg(0) trains with metrics
// off (null registry — the instrumentation branches are present but dead),
// Arg(1) with a live MetricsRegistry receiving update counts, sampled epoch
// loss, and epoch gauges. The acceptance bar is <=2% per-iteration overhead
// between the two rows (recorded in results/BENCH_obs.json).
void BM_BprSgdIterationObs(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  static Dataset data = BenchData(500, 2000, 25000);
  MetricsRegistry registry;
  BprOptions options;
  options.sgd.num_factors = 20;
  options.sgd.metrics = instrumented ? &registry : nullptr;
  for (auto _ : state) {
    state.PauseTiming();
    BprOptions opts = options;
    opts.sgd.iterations = 20000;
    BprTrainer chunk(opts);
    state.ResumeTiming();
    CLAPF_CHECK_OK(chunk.Train(data));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_BprSgdIterationObs)->Arg(0)->Arg(1);

// HogWild scaling of the BPR hot loop: the same 20k-iteration training
// chunk executed by 1/2/4/8 SGD workers. Real time is the comparable axis
// (CPU time sums across workers). On a single-core host the >1-thread rows
// mostly measure barrier overhead; on a multi-core host they are the 3×@8
// speedup trajectory the parallel engine targets.
void BM_BprSgdIterationParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static Dataset data = BenchData(500, 2000, 25000);
  BprOptions options;
  options.sgd.num_factors = 20;
  options.sgd.num_threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    BprOptions opts = options;
    opts.sgd.iterations = 20000;
    BprTrainer chunk(opts);
    state.ResumeTiming();
    CLAPF_CHECK_OK(chunk.Train(data));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_BprSgdIterationParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Batched top-k serving over a whole user cohort through a server that
// serves T queries at once: the 500-user cohort is cut into T contiguous
// sub-batches, which T client threads send concurrently as RecommendBatch
// requests (the server runs each batch as one admitted request on its
// client's thread and parallelizes across requests). Second arg selects
// the scoring path: 0 = exact double scan, 1 = packed float32 fused kernel
// (the serving default). The packed/exact gap at equal thread count is the
// end-to-end speedup the packed snapshot buys (recorded in
// results/BENCH_scoring.json).
void BM_RecommendBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static Dataset data = BenchData(500, 2000, 25000);
  static FactorModel model = [] {
    FactorModel m(500, 2000, 20);
    Rng rng(11);
    m.InitGaussian(rng, 0.1);
    return m;
  }();
  ServerOptions server_options;
  server_options.num_threads = threads;
  ModelServer server(data, server_options);
  CLAPF_CHECK_OK(server.PublishModel(model));
  std::vector<UserId> users;
  for (UserId u = 0; u < 500; ++u) users.push_back(u);
  QueryOptions options;
  options.use_packed = state.range(1) != 0;
  const size_t part = (users.size() + static_cast<size_t>(threads) - 1) /
                      static_cast<size_t>(threads);
  auto send = [&](int t) {
    const size_t lo = static_cast<size_t>(t) * part;
    const size_t hi = std::min(users.size(), lo + part);
    auto got = server.RecommendBatch(
        std::span<const UserId>(users).subspan(lo, hi - lo), 10, options);
    CLAPF_CHECK_OK(got.status());
    CLAPF_CHECK(got->num_complete == hi - lo);
    benchmark::DoNotOptimize(got->results.data());
  };
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (int t = 1; t < threads; ++t) clients.emplace_back(send, t);
    send(0);
    for (std::thread& client : clients) client.join();
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_RecommendBatch)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->UseRealTime();

// Deadline-machinery overhead on the single-query path. Each query is what
// a one-shard server scans for one user: the user's history into a reused
// exclusion bitmap, then one Retrieve over the catalog. Arg(0) serves with
// no deadline (one unbounded catalog scan), Arg(1) with a generous budget
// that never fires but makes the scan poll the clock every
// kRankerBlockItems items. The gap between the two rows is the price of
// deadline enforcement — it should be a few percent at most.
void BM_RecommendDeadline(benchmark::State& state) {
  // Arg: 0 = no deadline, 1 = deadline armed, 2 = deadline armed + the
  // per-query telemetry ModelServer::Recommend records (a counter
  // increment, a latency TraceSpan), 3 = deadline armed + packed fused
  // kernel. The 1→2 gap is the observability cost on the serving path; the
  // budget is <=2% (recorded in results/BENCH_obs.json). The 1→3 gap is the
  // packed speedup on the deadline-polled single-query path (recorded in
  // results/BENCH_scoring.json).
  const int mode = static_cast<int>(state.range(0));
  static Dataset data = BenchData(500, 20000, 25000);
  static FactorModel model = [] {
    FactorModel m(500, 20000, 20);
    Rng rng(13);
    m.InitGaussian(rng, 0.1);
    return m;
  }();
  static const PackedSnapshot packed = PackedSnapshot::Build(model);
  static MetricsRegistry obs_registry;
  Counter* queries =
      mode == 2 ? obs_registry.GetCounter("serving.queries_total") : nullptr;
  Histogram* latency =
      mode == 2 ? obs_registry.GetHistogram("serving.query.latency_us",
                                            LatencyBucketsUs())
                : nullptr;
  const RetrievalLayers layers{&model, mode == 3 ? &packed : nullptr,
                               nullptr};
  QueryOptions options;
  if (mode != 0) options.deadline = std::chrono::seconds(60);
  std::vector<bool> excluded;
  UserId u = 0;
  for (auto _ : state) {
    if (queries != nullptr) queries->Inc();
    TraceSpan span(latency);
    excluded.assign(static_cast<size_t>(model.num_items()), false);
    for (ItemId i : data.ItemsOf(u)) excluded[static_cast<size_t>(i)] = true;
    auto got = Retrieve(layers, u, 10, &excluded,
                        10 + data.ItemsOf(u).size(), options,
                        DeadlineFrom(options), nullptr, nullptr, nullptr);
    span.Stop();
    CLAPF_CHECK_OK(got.status());
    benchmark::DoNotOptimize(got->data());
    u = (u + 1) % 500;
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_RecommendDeadline)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Query latency while a writer hot-swaps models through the full canary
// gate as fast as it can. Measures the RCU read path under publish churn:
// the snapshot copy is a mutex held for nanoseconds, so per-query cost
// should sit on top of BM_RecommendBatch's per-user cost, not spike.
void BM_ModelSwapUnderLoad(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  ServerOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 1 << 20;  // never shed: this measures latency
  ModelServer server(data, options);
  FactorModel candidate(500, 2000, 20);
  Rng rng(17);
  candidate.InitGaussian(rng, 0.1);
  CLAPF_CHECK_OK(server.PublishModel(candidate));

  std::atomic<bool> stop{false};
  std::thread publisher([&server, &candidate, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      CLAPF_CHECK_OK(server.PublishModel(candidate));
    }
  });
  UserId u = 0;
  for (auto _ : state) {
    auto got = server.Recommend(u, 10);
    CLAPF_CHECK_OK(got.status());
    benchmark::DoNotOptimize(got->data());
    u = (u + 1) % 500;
  }
  stop.store(true);
  publisher.join();
  state.SetItemsProcessed(state.iterations());
  state.counters["publishes"] =
      static_cast<double>(server.stats().publishes);
}
BENCHMARK(BM_ModelSwapUnderLoad)->UseRealTime();

// Scatter-gather query cost as the shard count grows. Arg is the shard
// count (1 = the monolithic case, scored inline).
// Answers are bit-identical across rows — the drill suite proves it — so
// this row isolates the pure fan-out overhead: per-shard heaps, the
// threshold broadcast, and the latch join against the scatter pool.
void BM_RecommendSharded(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  ServerOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 1 << 20;
  options.num_shards = static_cast<int32_t>(state.range(0));
  options.scatter_threads = 2;
  ModelServer server(data, options);
  FactorModel candidate(500, 2000, 20);
  Rng rng(17);
  candidate.InitGaussian(rng, 0.1);
  CLAPF_CHECK_OK(server.PublishModel(candidate));
  UserId u = 0;
  for (auto _ : state) {
    auto got = server.Recommend(u, 10);
    CLAPF_CHECK_OK(got.status());
    benchmark::DoNotOptimize(got->data());
    u = (u + 1) % 500;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] =
      static_cast<double>(server.num_shards());
}
BENCHMARK(BM_RecommendSharded)->Arg(1)->Arg(4)->Arg(8);

// Incremental hot reload: the cost of publishing into ONE shard of an
// 8-shard catalog versus regating and repacking all of them. The per-shard
// row slices, gates, and repacks 1/8th of the items, so it should land
// near an 8th of the all-shard row — that gap is what makes targeted
// reloads cheap enough to run under load. Arg: 0 = one shard, 1 = all.
void BM_ShardPublish(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  ServerOptions options;
  options.num_threads = 2;
  options.num_shards = 8;
  ModelServer server(data, options);
  FactorModel candidate(500, 2000, 20);
  Rng rng(17);
  candidate.InitGaussian(rng, 0.1);
  CLAPF_CHECK_OK(server.PublishModel(candidate));
  const bool all_shards = state.range(0) == 1;
  int32_t shard = 0;
  for (auto _ : state) {
    PublishRequest request(candidate);
    if (!all_shards) {
      request.shard = shard;
      shard = (shard + 1) % server.num_shards();
    }
    CLAPF_CHECK_OK(server.PublishModel(std::move(request)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardPublish)->Arg(0)->Arg(1);

FactorModel ClusteredCatalog(int32_t num_users, int32_t num_items,
                             int32_t num_factors, int32_t num_centers,
                             uint64_t seed);

// An online update as the publish gate sees it: one shard, 200k items,
// d = 32, packed on. Two prepared candidates differ in every 100th item (1%
// of the catalog), and the iterations alternate them, so each publish
// replaces the serving slice with a 1% delta, handed over as a const
// lvalue. Arg 0 (ann off): the hand-over copy, the integrity scan, the
// repack and the packed agreement against the slice it replaces. Arg 1
// (ann + ivf.pq on a clustered catalog the recall gate accepts) adds the
// incremental index rebuild — the dirty set, its reassignment, the
// cluster-ordered repack and the SQ8 encode — and the recall gate, whose
// ground truth re-scores the delta.
void BM_PublishDriftUpdate(benchmark::State& state) {
  constexpr int32_t kUsers = 2000;
  constexpr int32_t kItems = 200000;
  const bool ann = state.range(0) == 1;
  static Dataset data = BenchData(kUsers, kItems, 100000);
  ServerOptions options;
  options.num_threads = 2;
  options.ivf.build_threads = 4;  // the publish's thread budget
  options.ann = ann;
  options.ivf.pq = ann;
  ModelServer server(data, options);
  FactorModel a(kUsers, kItems, 32);
  Rng rng(23);
  if (ann) {
    a = ClusteredCatalog(kUsers, kItems, 32, 64, 23);
  } else {
    a.InitGaussian(rng, 0.1);
  }
  FactorModel b = a;
  for (ItemId i = 0; i < kItems; i += 100) {
    for (double& x : b.ItemFactors(i)) x += 0.01 * rng.NextGaussian();
  }
  CLAPF_CHECK_OK(server.PublishModel(a));
  bool next_is_b = true;
  for (auto _ : state) {
    CLAPF_CHECK_OK(server.PublishModel(next_is_b ? b : a));
    next_is_b = !next_is_b;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PublishDriftUpdate)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Cost of one ondemand governor control step (read the counter deltas and
// the queue depth, decide). This is what the ticker thread pays every
// interval_us — it must be microseconds, i.e. invisible next to a single
// query.
void BM_GovernorTick(benchmark::State& state) {
  static Dataset data = BenchData(500, 2000, 25000);
  ServerOptions options;
  options.num_threads = 2;
  // Manual ticks: the benchmark drives the control loop.
  options.governor.emplace().interval_us = 0;
  ModelServer server(data, options);
  FactorModel candidate(500, 2000, 20);
  Rng rng(17);
  candidate.InitGaussian(rng, 0.1);
  CLAPF_CHECK_OK(server.PublishModel(candidate));
  // Serve some traffic first so the ticks read live counters.
  for (int i = 0; i < 64; ++i) {
    CLAPF_CHECK_OK(server.Recommend(i % 500, 10).status());
  }
  for (auto _ : state) {
    server.TickGovernor();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GovernorTick);

// The acceptance comparison as a benchmark row: the governor test's overload
// drill, timed. Every admitted query is stalled past its deadline by an
// injected fault (kServeSlowBlock), served static (Arg 0, no governor) vs
// adaptive (Arg 1, ondemand with a fast ticker). Throughput is not the
// point — the exported counters are: the governor clamps the admission
// bound and converts doomed queries into cheap typed sheds, so its
// miss_rate counter must sit below the static row's ~1.0 (recorded in
// results/BENCH_serving.json).
void BM_GovernorOverload(benchmark::State& state) {
  const bool adaptive = state.range(0) == 1;
  static Dataset data = BenchData(500, 2000, 25000);
  ServerOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 64;
  if (adaptive) {
    GovernorOptions& governor = options.governor.emplace();
    governor.interval_us = 500;
    governor.bounds.min_queue_depth = 2;
  }
  ModelServer server(data, options);
  FactorModel candidate(500, 2000, 20);
  Rng rng(17);
  candidate.InitGaussian(rng, 0.1);
  CLAPF_CHECK_OK(server.PublishModel(candidate));

  // Every served query blocks 2ms against a 500us budget: a guaranteed
  // miss. The only way to a lower miss rate is shedding at admission. The
  // injector logs one warning per fire — thousands here — so mute it.
  const LogLevel saved_log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  FaultInjector::Instance().Arm(FaultPoint::kServeSlowBlock,
                                {.trigger_at_hit = 1, .max_fires = -1});
  QueryOptions query;
  query.deadline = std::chrono::microseconds(500);
  std::atomic<bool> stop{false};
  // A background burst keeps the queue deeper than the clamped bound so the
  // governor has pressure to react to while the timed thread measures
  // per-call cost (admitted: ~2ms stall; shed: immediate Unavailable).
  std::vector<std::thread> burst;
  for (int c = 0; c < 4; ++c) {
    burst.emplace_back([&server, &stop, &query, c] {
      UserId u = 100 * (c + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)server.Recommend(u, 10, query);
        u = 100 * (c + 1) + (u + 1) % 100;
      }
    });
  }
  UserId u = 0;
  for (auto _ : state) {
    auto got = server.Recommend(u, 10, query);
    benchmark::DoNotOptimize(got.status());
    u = (u + 1) % 100;
  }
  stop.store(true);
  for (auto& t : burst) t.join();
  FaultInjector::Instance().Reset();
  SetLogLevel(saved_log_level);
  state.SetItemsProcessed(state.iterations());
  const ServingStatsSnapshot stats = server.stats();
  state.counters["miss_rate"] =
      stats.queries > 0 ? static_cast<double>(stats.deadline_exceeded) /
                              static_cast<double>(stats.queries)
                        : 0.0;
  state.counters["shed_rate"] =
      stats.queries > 0 ? static_cast<double>(stats.shed) /
                              static_cast<double>(stats.queries)
                        : 0.0;
  state.counters["governor_adjustments"] =
      server.governor() != nullptr
          ? static_cast<double>(server.governor()->adjustments())
          : 0.0;
}
BENCHMARK(BM_GovernorOverload)->Arg(0)->Arg(1)->UseRealTime();

void BM_ScoreAllItems(benchmark::State& state) {
  const int32_t m = static_cast<int32_t>(state.range(0));
  FactorModel model(10, m, 20);
  Rng rng(3);
  model.InitGaussian(rng, 0.1);
  std::vector<double> scores;
  for (auto _ : state) {
    model.ScoreAllItems(0, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ScoreAllItems)->Arg(1000)->Arg(10000)->Arg(50000);

// Full-catalog scoring for one user over 20k items, exact double path, at
// the small and large latent dimensions the packed speedup target is set
// for. Baseline row for the packed kernels below — items/s is the
// comparable axis (recorded in results/BENCH_scoring.json; target: packed
// >= 2x exact at both dims).
void BM_ScoreAllItemsExact(benchmark::State& state) {
  const int32_t d = static_cast<int32_t>(state.range(0));
  FactorModel model(10, 20000, d);
  Rng rng(3);
  model.InitGaussian(rng, 0.1);
  std::vector<double> scores;
  for (auto _ : state) {
    model.ScoreAllItems(0, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_ScoreAllItemsExact)->Arg(16)->Arg(64);

// Same full-catalog scan over the packed float32 snapshot with the kernel
// pinned (portable blocked loop vs the AVX2/FMA specialization), so the two
// rows isolate what auto-vectorization gets for free vs what explicit
// intrinsics add on top.
void PackedScoreAllItems(benchmark::State& state, ScoreKernel kernel) {
  if (!ScoreKernelSupported(kernel)) {
    state.SkipWithError("score kernel unsupported on this CPU");
    return;
  }
  const int32_t d = static_cast<int32_t>(state.range(0));
  FactorModel model(10, 20000, d);
  Rng rng(3);
  model.InitGaussian(rng, 0.1);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  ForceScoreKernel(kernel);
  std::vector<double> scores(20000);
  for (auto _ : state) {
    snap.ScoreItemRange(0, 0, 20000, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  ClearScoreKernelOverride();
  state.SetItemsProcessed(state.iterations() * 20000);
}

void BM_ScoreAllItemsPackedPortable(benchmark::State& state) {
  PackedScoreAllItems(state, ScoreKernel::kPortable);
}
BENCHMARK(BM_ScoreAllItemsPackedPortable)->Arg(16)->Arg(64);

void BM_ScoreAllItemsPackedAVX2(benchmark::State& state) {
  PackedScoreAllItems(state, ScoreKernel::kAvx2);
}
BENCHMARK(BM_ScoreAllItemsPackedAVX2)->Arg(16)->Arg(64);

// Fused packed score + top-k over the full catalog: one pass, no
// materialized score vector, threshold early-reject feeding the
// accumulator. Compare against BM_ScoreAllItemsExact + BM_TopKSelection
// (the two-phase exact pipeline it replaces on the serving hot path).
void BM_TopKFused(benchmark::State& state) {
  const int32_t d = static_cast<int32_t>(state.range(0));
  FactorModel model(10, 20000, d);
  Rng rng(3);
  model.InitGaussian(rng, 0.1);
  const PackedSnapshot snap = PackedSnapshot::Build(model);
  for (auto _ : state) {
    TopKAccumulator acc(10);
    ScoreBlocksTopK(snap, 0, 0, 20000, nullptr, &acc);
    auto top = acc.Take();
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TopKFused)->Arg(16)->Arg(64);

void BM_TopKSelection(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> scores(m);
  for (auto& s : scores) s = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTopK(scores, {}, 20));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_TopKSelection)->Arg(1000)->Arg(10000)->Arg(50000);

// ---- IVF retrieval over a 1M-item catalog -------------------------------
//
// The sub-linear serving claim (DESIGN §3j): IVF probe selection + exact
// fused re-rank of the shortlisted cluster blocks vs the fused full scan it
// replaces, with measured recall@10 reported next to every speedup so the
// two numbers can never be quoted apart. The catalog is clustered — items
// bundle around ~sqrt(n) directional centers, the regime real catalogs live
// in and the one the recall contract is stated on.

constexpr int32_t kAnnCatalogItems = 1000000;
constexpr int32_t kAnnUsers = 64;
constexpr int32_t kAnnFactors = 16;
constexpr int32_t kAnnClusters = 1024;
// Directional bundles in the catalog: far fewer than clusters (a bundle
// spans ~4 clusters), the way genres/categories relate to a fine coarse
// quantizer on a real catalog.
constexpr int32_t kAnnCenters = 256;

FactorModel ClusteredCatalog(int32_t num_users, int32_t num_items,
                             int32_t num_factors, int32_t num_centers,
                             uint64_t seed) {
  FactorModel model(num_users, num_items, num_factors);
  Rng rng(seed);
  std::vector<double> centers(static_cast<size_t>(num_centers) *
                              static_cast<size_t>(num_factors));
  for (double& c : centers) c = rng.NextGaussian() * 0.5;
  for (UserId u = 0; u < num_users; ++u) {
    auto uf = model.UserFactors(u);
    for (int32_t f = 0; f < num_factors; ++f) {
      uf[static_cast<size_t>(f)] = rng.NextGaussian() * 0.5;
    }
  }
  for (ItemId i = 0; i < num_items; ++i) {
    const double* center =
        centers.data() +
        static_cast<size_t>(i % num_centers) * static_cast<size_t>(num_factors);
    auto vf = model.ItemFactors(i);
    for (int32_t f = 0; f < num_factors; ++f) {
      vf[static_cast<size_t>(f)] =
          center[static_cast<size_t>(f)] + rng.NextGaussian() * 0.05;
    }
    model.ItemBias(i) = rng.NextGaussian() * 0.05;
  }
  return model;
}

struct AnnCorpus {
  FactorModel model;
  PackedSnapshot snap;
  IvfIndex ivf;
};

// Built once and shared by every ANN row (the 1M-item build is the
// expensive part; the queries being measured are microseconds).
const AnnCorpus& Ann1M() {
  static const AnnCorpus* corpus = [] {
    IvfOptions opt;
    opt.num_clusters = kAnnClusters;
    opt.default_nprobe = 16;
    // Codes ride along in the shared corpus so the pq rows below reuse the
    // one expensive 1M build; the plain ANN rows never touch them.
    opt.pq = true;
    FactorModel model = ClusteredCatalog(kAnnUsers, kAnnCatalogItems,
                                         kAnnFactors, kAnnCenters, 42);
    PackedSnapshot snap = PackedSnapshot::Build(model);
    IvfIndex ivf = IvfIndex::Build(model, opt);
    return new AnnCorpus{std::move(model), std::move(snap), std::move(ivf)};
  }();
  return *corpus;
}

// Arg = build_threads: the k-means assignment sweep, the cluster-ordered
// repack, and the code-book encode all fan out across the pool, and the
// index is bit-identical at any thread count (the determinism the pq codec
// tests pin down). Timed in wall-clock time: the build runs on pool
// workers, so the calling thread's CPU time would inflate
// items_per_second by the thread count and more.
void BM_IvfBuild(benchmark::State& state) {
  const AnnCorpus& c = Ann1M();
  IvfOptions opt = c.ivf.options();
  opt.build_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    IvfIndex idx = IvfIndex::Build(c.model, opt);
    benchmark::DoNotOptimize(idx.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * kAnnCatalogItems);
}
BENCHMARK(BM_IvfBuild)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The baseline the ≥10× target is stated against: the fused exact top-10
// scan of all 1M packed items.
void BM_RecommendFullScan1M(benchmark::State& state) {
  const AnnCorpus& c = Ann1M();
  UserId u = 0;
  for (auto _ : state) {
    TopKAccumulator acc(10);
    ScoreBlocksTopK(c.snap, u, 0, kAnnCatalogItems, nullptr, &acc);
    auto top = acc.Take();
    benchmark::DoNotOptimize(top.data());
    u = static_cast<UserId>((u + 1) % kAnnUsers);
  }
  state.SetItemsProcessed(state.iterations() * kAnnCatalogItems);
}
BENCHMARK(BM_RecommendFullScan1M)->Unit(benchmark::kMillisecond);

// IVF probe selection + exact fused re-rank at nprobe ∈ {1, 4, 16} of 1024
// clusters. `recall_at_10` is measured against the exact scan for the same
// users the timing loop visits; `shortlist_items` is the mean number of
// candidates actually re-ranked per query.
void BM_RecommendAnn(benchmark::State& state) {
  const AnnCorpus& c = Ann1M();
  const int32_t nprobe = static_cast<int32_t>(state.range(0));
  std::vector<IvfProbeRange> probes;

  double recall_sum = 0.0;
  size_t shortlist_sum = 0;
  for (UserId u = 0; u < kAnnUsers; ++u) {
    TopKAccumulator exact(10);
    ScoreBlocksTopK(c.snap, u, 0, kAnnCatalogItems, nullptr, &exact);
    const auto want = exact.Take();
    c.ivf.SelectProbes(u, nprobe, 10, &probes, nullptr);
    shortlist_sum += IvfIndex::CoveredItems(probes);
    TopKAccumulator acc(10);
    for (const IvfProbeRange& range : probes) {
      ScoreBlocksTopKMapped(c.ivf.packed(), u, range.begin, range.end,
                            c.ivf.local_to_global_data(), nullptr, &acc);
    }
    const auto got = acc.Take();
    size_t hits = 0;
    for (const ScoredItem& w : want) {
      for (const ScoredItem& g : got) {
        if (g.item == w.item) {
          ++hits;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(want.size());
  }
  state.counters["recall_at_10"] =
      recall_sum / static_cast<double>(kAnnUsers);
  state.counters["shortlist_items"] = static_cast<double>(
      shortlist_sum / static_cast<size_t>(kAnnUsers));

  UserId u = 0;
  for (auto _ : state) {
    c.ivf.SelectProbes(u, nprobe, 10, &probes, nullptr);
    TopKAccumulator acc(10);
    for (const IvfProbeRange& range : probes) {
      ScoreBlocksTopKMapped(c.ivf.packed(), u, range.begin, range.end,
                            c.ivf.local_to_global_data(), nullptr, &acc);
    }
    auto top = acc.Take();
    benchmark::DoNotOptimize(top.data());
    u = static_cast<UserId>((u + 1) % kAnnUsers);
  }
}
BENCHMARK(BM_RecommendAnn)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// The quantized first pass over the same probe ranges: int8 scan keeps the
// top `rerank_budget` (the publish default, 256) and only the blocks holding
// survivors reach the exact fused re-rank. `recall_at_10` is the COMPOSED
// path measured against the exact full scan — the number the publish gate
// holds at ≥0.95 — so the speedup over BM_RecommendAnn at the same nprobe
// can never be quoted without the recall it costs. `rerank_survivors` is the
// mean number of candidates the exact stage actually re-scores.
void BM_RecommendAnnPq(benchmark::State& state) {
  const AnnCorpus& c = Ann1M();
  const int32_t nprobe = static_cast<int32_t>(state.range(0));
  const size_t budget =
      static_cast<size_t>(c.ivf.default_rerank_budget());
  std::vector<IvfProbeRange> probes;
  std::vector<IvfProbeRange> rerank;

  double recall_sum = 0.0;
  size_t shortlist_sum = 0;
  int64_t survivor_sum = 0;
  for (UserId u = 0; u < kAnnUsers; ++u) {
    TopKAccumulator exact(10);
    ScoreBlocksTopK(c.snap, u, 0, kAnnCatalogItems, nullptr, &exact);
    const auto want = exact.Take();
    c.ivf.SelectProbes(u, nprobe, 10, &probes, nullptr);
    shortlist_sum += IvfIndex::CoveredItems(probes);
    int64_t survivors = 0;
    if (!c.ivf.QuantizedShortlist(u, probes, budget, nullptr, std::nullopt,
                                  &rerank, &survivors)
             .ok()) {
      state.SkipWithError("quantized shortlist failed");
      return;
    }
    survivor_sum += survivors;
    TopKAccumulator acc(10);
    for (const IvfProbeRange& range : rerank) {
      ScoreBlocksTopKMapped(c.ivf.packed(), u, range.begin, range.end,
                            c.ivf.local_to_global_data(), nullptr, &acc);
    }
    const auto got = acc.Take();
    size_t hits = 0;
    for (const ScoredItem& w : want) {
      for (const ScoredItem& g : got) {
        if (g.item == w.item) {
          ++hits;
          break;
        }
      }
    }
    recall_sum += static_cast<double>(hits) /
                  static_cast<double>(want.size());
  }
  state.counters["recall_at_10"] =
      recall_sum / static_cast<double>(kAnnUsers);
  state.counters["shortlist_items"] = static_cast<double>(
      shortlist_sum / static_cast<size_t>(kAnnUsers));
  state.counters["rerank_survivors"] = static_cast<double>(
      survivor_sum / static_cast<int64_t>(kAnnUsers));

  UserId u = 0;
  for (auto _ : state) {
    c.ivf.SelectProbes(u, nprobe, 10, &probes, nullptr);
    int64_t survivors = 0;
    if (!c.ivf.QuantizedShortlist(u, probes, budget, nullptr, std::nullopt,
                                  &rerank, &survivors)
             .ok()) {
      state.SkipWithError("quantized shortlist failed");
      return;
    }
    TopKAccumulator acc(10);
    // Prefetch a few sparse survivor blocks ahead, like serving does.
    for (size_t ri = 0; ri < rerank.size(); ++ri) {
      if (ri + 3 < rerank.size()) c.ivf.PrefetchRange(rerank[ri + 3]);
      const IvfProbeRange& range = rerank[ri];
      ScoreBlocksTopKMapped(c.ivf.packed(), u, range.begin, range.end,
                            c.ivf.local_to_global_data(), nullptr, &acc);
    }
    auto top = acc.Take();
    benchmark::DoNotOptimize(top.data());
    u = static_cast<UserId>((u + 1) % kAnnUsers);
  }
}
BENCHMARK(BM_RecommendAnnPq)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_CholeskySolve(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<double> base(static_cast<size_t>(d) * d);
  for (auto& x : base) x = rng.NextGaussian();
  std::vector<double> a(static_cast<size_t>(d) * d);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        double s = i == j ? static_cast<double>(d) : 0.0;
        for (int k = 0; k < d; ++k) {
          s += base[static_cast<size_t>(k) * d + i] *
               base[static_cast<size_t>(k) * d + j];
        }
        a[static_cast<size_t>(i) * d + j] = s;
      }
    }
    std::vector<double> b(static_cast<size_t>(d), 1.0);
    state.ResumeTiming();
    CLAPF_CHECK_OK(CholeskySolveInPlace(a, b, d));
    benchmark::DoNotOptimize(b.data());
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(10)->Arg(20)->Arg(40);

// Raw cost of one sharded counter increment — the observability primitive
// every hot-path tally compiles down to.
void BM_MetricsCounterInc(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("bench.ops_total");
  for (auto _ : state) {
    c->Inc();
  }
  benchmark::DoNotOptimize(c->Value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

// Raw cost of one histogram recording: bucket walk + sharded count + CAS add
// of the sum.
void BM_MetricsHistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("bench.latency_us", LatencyBucketsUs());
  double v = 1.0;
  for (auto _ : state) {
    h->Record(v);
    v = v < 4.0e6 ? v * 1.7 : 1.0;  // sweep the buckets
  }
  benchmark::DoNotOptimize(h->Snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

// Full TraceSpan lifecycle: stopwatch construction + clock read + histogram
// record at destruction. This is the per-query serving cost of latency
// tracing.
void BM_TraceSpanRoundTrip(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("bench.span_us", LatencyBucketsUs());
  for (auto _ : state) {
    TraceSpan span(h);
    benchmark::DoNotOptimize(&span);
  }
  benchmark::DoNotOptimize(h->Snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanRoundTrip);

void BM_SmoothedApPerUser(benchmark::State& state) {
  static Dataset data = BenchData(100, 500, 5000);
  static FactorModel model = [] {
    FactorModel m(100, 500, 20);
    Rng rng(9);
    m.InitGaussian(rng, 0.1);
    return m;
  }();
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmoothedAveragePrecision(model, data, u));
    u = (u + 1) % 100;
  }
}
BENCHMARK(BM_SmoothedApPerUser);

// --- Online lifecycle -------------------------------------------------------
// The ingest hot path: one CRC-framed WAL append, per fsync policy. Arg(0)
// never fsyncs (pure frame cost), Arg(1) fsyncs every append (the durable
// default — dominated by the disk), Arg(64) batches durability.
void BM_WalAppend(benchmark::State& state) {
  const std::string dir =
      "/tmp/clapf-bench-wal-append-" + std::to_string(state.range(0));
  std::filesystem::remove_all(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync_every = state.range(0);
  auto wal = InteractionWal::Open(options);
  CLAPF_CHECK_OK(wal.status());
  int64_t p = 0;
  for (auto _ : state) {
    CLAPF_CHECK_OK((*wal)->Append(
        WalRecord{static_cast<UserId>(p % 100),
                  static_cast<ItemId>(p % 500)}));
    ++p;
  }
  state.SetItemsProcessed(state.iterations());
  (*wal).reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Arg(64);

// Crash-recovery replay throughput over a multi-segment log: the startup
// cost of re-ingesting a day's records (CRC re-verified frame by frame).
void BM_WalReplay(benchmark::State& state) {
  const std::string dir = "/tmp/clapf-bench-wal-replay";
  std::filesystem::remove_all(dir);
  WalOptions options;
  options.dir = dir;
  options.fsync_every = 0;
  options.segment_bytes = 64 << 10;
  auto wal = InteractionWal::Open(options);
  CLAPF_CHECK_OK(wal.status());
  const int64_t records = state.range(0);
  for (int64_t p = 0; p < records; ++p) {
    CLAPF_CHECK_OK((*wal)->Append(
        WalRecord{static_cast<UserId>(p % 100),
                  static_cast<ItemId>(p % 500)}));
  }
  for (auto _ : state) {
    int64_t sum = 0;
    auto stats = (*wal)->Replay(0, [&](int64_t, const WalRecord& r) {
      sum += r.user + r.item;
    });
    CLAPF_CHECK_OK(stats.status());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * records);
  (*wal).reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalReplay)->Arg(1000)->Arg(10000)->Arg(100000);

// One guarded online training increment (tail + reservoir mix) — the cost a
// deployment cycle pays before its canary-gated publish.
void BM_OnlineTrainIncrement(benchmark::State& state) {
  static Dataset bootstrap = BenchData(100, 500, 5000);
  OnlineTrainerOptions options;
  options.sgd.num_factors = 16;
  options.sgd.divergence.policy = DivergencePolicy::kHalt;
  options.reservoir_capacity = state.range(0);
  OnlineTrainer trainer(bootstrap, options);
  int64_t p = 0;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 64; ++i, ++p) {
      trainer.Ingest(static_cast<UserId>(p % 100),
                     static_cast<ItemId>(p % 500));
    }
    state.ResumeTiming();
    CLAPF_CHECK_OK(trainer.TrainIncrement(seed++));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_OnlineTrainIncrement)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace clapf

BENCHMARK_MAIN();

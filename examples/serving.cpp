// Serving workflow: tune CLAPF's hyper-parameters on validation data with
// the model-selection API, train the winner (with crash-safe checkpoints),
// persist it, publish the file to a ModelServer, and answer top-k queries —
// including a cold-start user, an exclusion list, a batch, and a resilience
// drill: when the served model file is corrupt, the publish is refused and
// the server answers from popularity, then full service comes back from the
// newest valid checkpoint. Finishes with the rest of the serving layer: an
// overload drill (bounded admission queue shedding a burst), a validated hot
// reload (canary gate rejecting a corrupt candidate, then swapping in a good
// one while queries run), an ondemand governor reacting to the overload, and
// the same server over four shards.

#include <atomic>
#include <cstdio>
#include <thread>

#include "clapf/clapf.h"
#include "clapf/util/flags.h"
#include "clapf/util/string_util.h"

int main(int argc, char** argv) {
  using namespace clapf;

  std::string model_path = "/tmp/clapf_serving.clpf";
  FlagParser flags;
  flags.AddString("model_out", &model_path, "where the model is persisted");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : 1;
  }

  // Catalog-sized implicit feedback. User 0 has just signed up and has no
  // history yet: the cold user the popularity fallback serves below.
  SyntheticConfig config = PresetConfig(DatasetPreset::kMl100k);
  config.num_users = 400;
  config.num_items = 800;
  config.num_interactions = 22000;
  const Dataset generated = *GenerateSynthetic(config);
  DatasetBuilder builder(generated.num_users(), generated.num_items());
  for (UserId u = 1; u < generated.num_users(); ++u) {
    for (ItemId i : generated.ItemsOf(u)) CLAPF_CHECK_OK(builder.Add(u, i));
  }
  Dataset data = builder.Build();
  constexpr UserId kColdUser = 0;
  std::printf("catalog: %s\n", ComputeStats(data).ToString().c_str());

  // 1. Model selection, the paper's protocol: λ then T by validation NDCG@5.
  ClapfOptions base;
  base.sgd.iterations = 400000;
  base.sgd.learning_rate = 0.05;
  base.sgd.final_learning_rate_fraction = 0.05;
  auto lambda_pick = SelectLambda(data, base, {0.0, 0.1, 0.2, 0.4},
                                  SelectionMetric::kNdcgAt5, /*seed=*/7);
  CLAPF_CHECK_OK(lambda_pick.status());
  std::printf("selected λ = %.1f (validation NDCG@5 per λ:",
              lambda_pick->best_options.lambda);
  for (const auto& trial : lambda_pick->trials) {
    std::printf(" %.3f", trial.validation_score);
  }
  std::printf(")\n");

  auto budget_pick =
      SelectIterations(data, lambda_pick->best_options,
                       {100000, 400000, 1600000},
                       SelectionMetric::kNdcgAt5, /*seed=*/7);
  CLAPF_CHECK_OK(budget_pick.status());
  std::printf("selected T = %lld\n",
              static_cast<long long>(
                  budget_pick->best_options.sgd.iterations));

  // 2. Train the tuned configuration on the full data, snapshotting every
  // 100k iterations so a crash (or, below, a corrupted model file) never
  // costs the whole run. The divergence guard halts on numerical blow-up
  // instead of serving a NaN-riddled model.
  ClapfOptions serve_options = budget_pick->best_options;
  serve_options.checkpoint.dir = "/tmp/clapf_serving_ckpt";
  serve_options.checkpoint.interval = 100000;
  serve_options.sgd.divergence.policy = DivergencePolicy::kHalt;
  // HogWild the final fit: lock-free parallel SGD over the shared model.
  // Checkpoints land at worker barriers, so crash recovery works unchanged.
  serve_options.sgd.num_threads = 2;
  ClapfTrainer trainer(serve_options);
  CLAPF_CHECK_OK(trainer.Train(data));

  // 3. Persist the model atomically (a crash mid-save never leaves a torn
  // file), and publish the file: the server loads it through the CRC check
  // and the canary gate before it serves.
  CLAPF_CHECK_OK(SaveModelAtomic(*trainer.model(), model_path));
  std::printf("model saved to %s\n", model_path.c_str());
  ModelServer service(data, ServerOptions{});
  CLAPF_CHECK_OK(service.PublishModel(model_path));
  std::printf("published %s as v%lld\n", model_path.c_str(),
              static_cast<long long>(service.version()));

  // 4. Serve queries through the QueryOptions surface.
  auto warm = service.Recommend(/*u=*/3, 5);
  CLAPF_CHECK_OK(warm.status());
  std::printf("warm user 3:");
  for (const ScoredItem& item : *warm) {
    std::printf(" %d(%.2f)", item.item, item.score);
  }
  std::printf("\n");

  // Business rule: items 0-9 are out of stock.
  QueryOptions stock_filter;
  for (ItemId i = 0; i < 10; ++i) stock_filter.exclude.push_back(i);
  auto filtered = service.Recommend(3, 5, stock_filter);
  CLAPF_CHECK_OK(filtered.status());
  std::printf("warm user 3 (stock-filtered):");
  for (const ScoredItem& item : *filtered) std::printf(" %d", item.item);
  std::printf("\n");

  // A cold user (one with no training history) gets popularity — unless the
  // caller opts out via cold_start_fallback = false.
  auto cold = service.Recommend(kColdUser, 5);
  CLAPF_CHECK_OK(cold.status());
  std::printf("cold user %d (popularity fallback):", kColdUser);
  for (const ScoredItem& item : *cold) std::printf(" %d", item.item);
  QueryOptions no_fallback;
  no_fallback.cold_start_fallback = false;
  auto opted_out = service.Recommend(kColdUser, 5, no_fallback);
  CLAPF_CHECK_OK(opted_out.status());
  std::printf(" (%zu items with the fallback off)\n", opted_out->size());

  // Nightly-precompute shape: one batched request scores a whole cohort,
  // with the same options applied to every user.
  std::vector<UserId> cohort;
  for (UserId u = 0; u < 32; ++u) cohort.push_back(u);
  auto batch = service.RecommendBatch(cohort, 5, stock_filter);
  CLAPF_CHECK_OK(batch.status());
  size_t served = 0;
  for (const auto& list : batch->results) served += list.size();
  std::printf("batch: served %zu items across %zu users\n", served,
              batch->num_complete);

  // 5. Resilience drill: bit rot corrupts the served model file, and a
  // serving process restarts on it. The CRC in the model format turns
  // silent corruption into a refused publish...
  {
    auto bytes = ReadFileToString(model_path);
    CLAPF_CHECK_OK(bytes.status());
    std::string damaged = *bytes;
    damaged[damaged.size() / 2] ^= 0x08;
    CLAPF_CHECK_OK(WriteStringToFile(model_path, damaged));
  }
  ModelServer restarted(data, ServerOptions{});
  Status broken = restarted.PublishModel(model_path);
  std::printf("corrupted model publish: %s\n", broken.ToString().c_str());

  // ...so the server answers from popularity instead of silently returning
  // garbage scores.
  auto degraded = restarted.Recommend(3, 5);
  CLAPF_CHECK_OK(degraded.status());
  std::printf("degraded=%d, popularity answer for user 3:",
              restarted.degraded() ? 1 : 0);
  for (const ScoredItem& item : *degraded) std::printf(" %d", item.item);
  std::printf("\n");

  // 6. Full service comes back from the newest valid checkpoint: reload it,
  // rewrite the model file atomically, and republish it.
  CheckpointManager checkpoints(serve_options.checkpoint);
  CLAPF_CHECK_OK(checkpoints.Init());
  auto recovered = checkpoints.LoadLatest();
  CLAPF_CHECK_OK(recovered.status());
  std::printf("recovered checkpoint from iteration %lld\n",
              static_cast<long long>(recovered->state.iteration));
  CLAPF_CHECK_OK(SaveModelAtomic(recovered->model, model_path));
  CLAPF_CHECK_OK(restarted.PublishModel(model_path));
  auto restored = restarted.Recommend(3, 5);
  CLAPF_CHECK_OK(restored.status());
  std::printf("restored service: v%lld, user 3 top item %d (%.6f)\n",
              static_cast<long long>(restarted.version()),
              (*restored)[0].item, (*restored)[0].score);

  // 7. Under load. A second server with a tiny admission queue publishes
  // the trained model straight from memory, through the same canary gate.
  // Its ondemand governor is ticked by hand below, never by a thread.
  ServerOptions server_options;
  server_options.num_threads = 2;
  server_options.max_queue_depth = 2;  // tiny on purpose: we want shedding
  server_options.governor.emplace().interval_us = 0;
  ModelServer server(data, server_options);
  CLAPF_CHECK_OK(server.PublishModel(*trainer.model()));
  std::printf("model server: published v%lld\n",
              static_cast<long long>(server.version()));

  // Overload drill: every admitted request is stalled by an injected fault,
  // so a burst of clients piles past the depth-2 admission bound. Excess
  // requests come back Unavailable ("shed") instead of queuing without
  // bound — and the server keeps answering what it admitted.
  FaultInjector::Instance().Arm(FaultPoint::kServeQueueStall,
                                {.trigger_at_hit = 1, .max_fires = -1});
  std::atomic<int> ok_count{0}, shed_count{0};
  {
    std::vector<std::thread> burst;
    for (int c = 0; c < 4; ++c) {
      burst.emplace_back([&server, &ok_count, &shed_count, c] {
        for (int r = 0; r < 4; ++r) {
          auto got = server.Recommend(c, 5);
          if (got.ok()) {
            ok_count.fetch_add(1);
          } else if (got.status().code() == StatusCode::kUnavailable) {
            shed_count.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : burst) t.join();
  }
  FaultInjector::Instance().Reset();
  std::printf("overload drill: %d served, %d shed (typed Unavailable)\n",
              ok_count.load(), shed_count.load());

  // Hot-reload drill, part 1: a corrupt candidate. The injected fault
  // poisons the candidate's factors in flight; the canary gate's finite
  // scan rejects it before the swap, and v1 keeps serving untouched.
  FaultInjector::Instance().Arm(FaultPoint::kServeCorruptCandidate, {});
  Status rejected = server.PublishModel(recovered->model);
  FaultInjector::Instance().Reset();
  std::printf("corrupt candidate: %s (still serving v%lld)\n",
              rejected.ToString().c_str(),
              static_cast<long long>(server.version()));

  // Part 2: a clean candidate hot-swaps while a reader hammers the server.
  // Readers copy the snapshot pointer and score lock-free, so in-flight
  // queries finish on the old model and new ones pick up the new version.
  std::atomic<bool> stop{false};
  std::atomic<int> swap_served{0};
  std::thread reader([&server, &stop, &swap_served] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (server.Recommend(3, 5).ok()) swap_served.fetch_add(1);
    }
  });
  CLAPF_CHECK_OK(server.PublishModel(recovered->model));
  while (swap_served.load() < 10) std::this_thread::yield();
  stop.store(true);
  reader.join();
  std::printf("hot reload: now serving v%lld; %d queries answered during "
              "the swap window\n",
              static_cast<long long>(server.version()), swap_served.load());

  // Governor drill: the ondemand governor watches the same metrics and, on
  // pressure (here: the sheds recorded by the overload drill above), clamps
  // every knob to its defensive bound — then decays back once calm. Each
  // movement lands in the flight recorder next to the sheds that caused it.
  const ServingGovernor& governor = *server.governor();
  server.TickGovernor();
  GovernorKnobs knobs = governor.knobs();
  std::printf("governor (ondemand): queue_depth=%lld (bounds %lld..%lld) "
              "deadline_budget_us=%lld after the overload\n",
              static_cast<long long>(knobs.max_queue_depth),
              static_cast<long long>(governor.bounds().min_queue_depth),
              static_cast<long long>(governor.bounds().max_queue_depth),
              static_cast<long long>(knobs.deadline_budget_us));
  // Calm ticks relax one step per decay_ticks: the budget cap doubles until
  // it is released, and the later steps query an unclamped server.
  int calm_ticks = 0;
  while (governor.knobs().deadline_budget_us != 0 && calm_ticks < 1000) {
    server.TickGovernor();
    ++calm_ticks;
  }
  knobs = governor.knobs();
  std::printf("governor decayed to rest after %d calm ticks: queue_depth=%lld "
              "deadline_budget_us=%lld (%lld adjustments)\n",
              calm_ticks, static_cast<long long>(knobs.max_queue_depth),
              static_cast<long long>(knobs.deadline_budget_us),
              static_cast<long long>(governor.adjustments()));

  // The incident black box: everything the serving layer decided above —
  // sheds, the canary reject, publishes, governor moves — in order,
  // dumpable as JSON at any time (and automatically on a breaker trip via
  // flight_dump_path).
  int shown = 0;
  for (const FlightEvent& event : server.flight_recorder().Snapshot()) {
    std::printf("  flight[%llu] %s: %s\n",
                static_cast<unsigned long long>(event.seq),
                FlightEventKindName(event.kind), event.detail);
    if (++shown >= 8) break;
  }
  std::printf("serving stats: %s\n", server.stats().ToString().c_str());

  // 8. Sharded scatter-gather serving. The same server class over four
  // shards, each with its own packed slice, canary gate, breaker, and
  // flight stream — and answers BIT-IDENTICAL to the one-shard server above.
  ServerOptions shard_options = server_options;
  shard_options.max_queue_depth = 64;
  shard_options.num_shards = 4;
  shard_options.governor.reset();
  ModelServer sharded(data, shard_options);
  std::printf("sharded server: %s\n", sharded.shard_map().ToString().c_str());
  CLAPF_CHECK_OK(sharded.PublishModel(recovered->model));
  auto mono_answer = server.Recommend(3, 5);
  auto shard_answer = sharded.Recommend(3, 5);
  CLAPF_CHECK_OK(mono_answer.status());
  CLAPF_CHECK_OK(shard_answer.status());
  std::printf("scatter-gather check: one-shard item %d (%.6f) == "
              "sharded item %d (%.6f)\n",
              (*mono_answer)[0].item, (*mono_answer)[0].score,
              (*shard_answer)[0].item, (*shard_answer)[0].score);

  // Incremental hot reload: republish into shard 2 only. The other three
  // shards keep serving their current slices untouched — the publish gates
  // and repacks a quarter of the catalog.
  CLAPF_CHECK_OK(sharded.PublishModel(
      PublishRequest(recovered->model).WithShard(2)));
  std::printf("per-shard reload: versions");
  for (int64_t v : sharded.shard_versions()) {
    std::printf(" v%lld", static_cast<long long>(v));
  }
  std::printf(" (only shard 2 moved)\n");
  std::printf("sharded stats: %s\n", sharded.stats().ToString().c_str());
  for (const ShardStatsSnapshot& shard : sharded.shard_stats()) {
    std::printf("  %s\n", shard.ToString().c_str());
  }
  return 0;
}

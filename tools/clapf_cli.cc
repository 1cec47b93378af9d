// clapf_cli — command-line workflow for the CLAPF library on real data.
//
//   clapf_cli train     --input u.data --format tab --method CLAPF-MAP
//                       --model-out model.clpf --dataset-out data.clds
//   clapf_cli evaluate  --model model.clpf --dataset data.clds
//   clapf_cli recommend --model model.clpf --dataset data.clds --users 5 --k 10
//                       --ann --pq --rerank-budget 256
//   clapf_cli serve     --model model.clpf --dataset data.clds --users 1,5
//                       --deadline-us 5000 --queue-depth 32 --min-auc 0.6
//                       --metrics-out metrics.json --metrics-every 10
//                       --shards 4 --governor ondemand
//   clapf_cli online    --dataset u.data --format tab --wal-dir ./wal
//                       --checkpoint-dir ./ckpt --cycle-every 64
//                       --min-auc 0.6 --flight-dump flight.json
//   clapf_cli stats     --input u.data --format tab
//
// train/evaluate/recommend/serve accept --metrics-out <path> to dump their
// telemetry (counters, gauges, latency histograms) as JSON.
//
// Formats: tab (MovieLens 100K), colons (ML1M), csv (ML20M), pairs.

#include <cstdio>
#include <limits>
#include <string>
#include <tuple>

#include "clapf/clapf.h"
#include "clapf/data/dataset_io.h"
#include "clapf/util/flags.h"
#include "clapf/util/string_util.h"

namespace {

using namespace clapf;

Result<FileFormat> ParseFormat(const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "tab") return FileFormat::kTabSeparated;
  if (key == "colons") return FileFormat::kDoubleColon;
  if (key == "csv") return FileFormat::kCsv;
  if (key == "pairs") return FileFormat::kPairs;
  return Status::InvalidArgument("unknown format: " + name +
                                 " (want tab|colons|csv|pairs)");
}

Result<Dataset> LoadAnyDataset(const std::string& input,
                               const std::string& format, bool has_header) {
  if (EndsWith(input, ".clds")) return LoadDataset(input);
  auto fmt = ParseFormat(format);
  if (!fmt.ok()) return fmt.status();
  LoadOptions options;
  options.format = *fmt;
  options.has_header = has_header;
  return LoadInteractions(input, options);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// A negative --k would wrap to a huge size_t and list the whole catalog.
Status CheckListLength(int64_t k) {
  if (k >= 0) return Status::OK();
  return Status::InvalidArgument("--k must not be negative, got " +
                                 std::to_string(k));
}

// Refuses an int32 setting outside [lo, INT32_MAX], naming its flag: a
// negative count would otherwise silently take a default, and a larger
// one would wrap.
Status CheckCount(const char* flag, int64_t value, int64_t lo) {
  if (value >= lo && value <= std::numeric_limits<int32_t>::max()) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::string("--") + flag + " must be in [" + std::to_string(lo) +
      ", " + std::to_string(std::numeric_limits<int32_t>::max()) +
      "], got " + std::to_string(value));
}

// Dumps `registry` as JSON to `path` when --metrics-out was given. A failed
// dump is reported but never fails the command: telemetry is best-effort.
void MaybeDumpMetrics(const MetricsRegistry& registry,
                      const std::string& path) {
  if (path.empty()) return;
  if (Status s = WriteMetricsJsonFile(registry, path); !s.ok()) {
    std::fprintf(stderr, "warning: metrics dump failed: %s\n",
                 s.ToString().c_str());
  } else {
    std::printf("metrics written to %s\n", path.c_str());
  }
}

int RunTrain(int argc, char** argv) {
  std::string input, format = "tab", method_name = "CLAPF-MAP";
  std::string model_out = "model.clpf", dataset_out, metrics_out;
  int64_t iterations = 500000;
  int64_t threads = 1;
  double lambda = 0.4;
  bool has_header = false;
  bool tune = false;
  FlagParser flags;
  flags.AddString("input", &input, "ratings file (.clds or text formats)");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  flags.AddString("method", &method_name, "any Table-2 or extension method");
  flags.AddInt("iterations", &iterations, "SGD iterations");
  flags.AddInt("threads", &threads,
               "SGD workers (1 = serial/reproducible, >1 = HogWild)");
  flags.AddDouble("lambda", &lambda, "CLAPF tradeoff λ");
  flags.AddBool("tune", &tune, "select λ on a validation split first");
  flags.AddString("model-out", &model_out, "model output path");
  flags.AddString("dataset-out", &dataset_out,
                  "optional .clds cache of the parsed dataset");
  flags.AddString("metrics-out", &metrics_out,
                  "dump training metrics (epoch loss, update counts, sampler "
                  "stats) as JSON to this path");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (input.empty()) return Fail(Status::InvalidArgument("--input required"));

  auto data = LoadAnyDataset(input, format, has_header);
  if (!data.ok()) return Fail(data.status());
  std::printf("loaded %s\n", data->Summary().c_str());
  if (!dataset_out.empty()) {
    if (Status s = SaveDataset(*data, dataset_out); !s.ok()) return Fail(s);
    std::printf("dataset cached to %s\n", dataset_out.c_str());
  }

  auto method = ParseMethodName(method_name);
  if (!method.ok()) return Fail(method.status());

  MetricsRegistry metrics;
  MethodConfig config;
  config.sgd.iterations = iterations;
  config.sgd.learning_rate = 0.05;
  config.sgd.final_learning_rate_fraction = 0.05;
  config.sgd.num_threads = static_cast<int>(threads);
  if (!metrics_out.empty()) config.sgd.metrics = &metrics;
  config.clapf_lambda = lambda;

  if (tune) {
    ClapfOptions base;
    base.sgd = config.sgd;
    auto pick = SelectLambda(*data, base, {0.0, 0.1, 0.2, 0.4, 0.8},
                             SelectionMetric::kNdcgAt5, /*seed=*/1);
    if (!pick.ok()) return Fail(pick.status());
    config.clapf_lambda = pick->best_options.lambda;
    std::printf("validation-selected λ = %.1f\n", config.clapf_lambda);
  }

  auto trainer = MakeTrainer(*method, config);
  Stopwatch watch;
  if (Status s = trainer->Train(*data); !s.ok()) return Fail(s);
  std::printf("trained %s in %s\n", trainer->name().c_str(),
              FormatDuration(watch.ElapsedSeconds()).c_str());
  MaybeDumpMetrics(metrics, metrics_out);

  // Only factor-model methods can be persisted.
  auto* mf = dynamic_cast<FactorModelTrainer*>(trainer.get());
  if (mf == nullptr) {
    std::printf("note: %s has no persistable factor model; skipping save\n",
                trainer->name().c_str());
    return 0;
  }
  if (Status s = SaveModel(*mf->model(), model_out); !s.ok()) return Fail(s);
  std::printf("model saved to %s\n", model_out.c_str());
  return 0;
}

int RunEvaluate(int argc, char** argv) {
  std::string model_path = "model.clpf", dataset_path, format = "tab";
  std::string metrics_out;
  double train_fraction = 0.5;
  int64_t seed = 42;
  bool has_header = false;
  FlagParser flags;
  flags.AddString("model", &model_path, "model path (.clpf)");
  flags.AddString("dataset", &dataset_path, "dataset (.clds or text)");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  flags.AddDouble("train-fraction", &train_fraction,
                  "fraction treated as (excluded) training history");
  flags.AddInt("seed", &seed, "split seed — must match the training split");
  flags.AddString("metrics-out", &metrics_out,
                  "dump evaluation metrics as JSON to this path");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (dataset_path.empty()) {
    return Fail(Status::InvalidArgument("--dataset required"));
  }

  auto data = LoadAnyDataset(dataset_path, format, has_header);
  if (!data.ok()) return Fail(data.status());
  auto model = LoadModel(model_path);
  if (!model.ok()) return Fail(model.status());
  if (model->num_users() != data->num_users() ||
      model->num_items() != data->num_items()) {
    return Fail(Status::InvalidArgument(
        "model and dataset dimensions disagree"));
  }

  auto split = SplitRandom(*data, train_fraction,
                           static_cast<uint64_t>(seed));
  MetricsRegistry metrics;
  Evaluator evaluator(&split.train, &split.test);
  if (!metrics_out.empty()) evaluator.SetMetrics(&metrics);
  EvalSummary summary = evaluator.Evaluate(*model, PaperCutoffs());
  std::printf("%s\n", summary.ToString().c_str());
  MaybeDumpMetrics(metrics, metrics_out);
  return 0;
}

// Reports which scoring path actually answered the queries, read back from
// the serving counters rather than echoed from the flags — a --pq run whose
// index carries no codes serves plain ANN and says so.
void PrintScoringPath(MetricsRegistry* metrics, bool packed) {
  const int64_t pq_queries =
      metrics->GetCounter("ann.pq_queries_total")->Value();
  const int64_t ann_queries = metrics->GetCounter("ann.queries_total")->Value();
  std::printf("scoring path: %s\n",
              pq_queries > 0
                  ? "ann+pq"
                  : (ann_queries > 0 ? "ann" : (packed ? "packed" : "exact")));
}

int RunRecommend(int argc, char** argv) {
  std::string model_path = "model.clpf", dataset_path, format = "tab";
  std::string users_csv = "0", exclude_csv, metrics_out;
  int64_t k = 10, nprobe = 0, rerank_budget = 0;
  int64_t build_threads = 0;
  bool has_header = false, no_cold_fallback = false, packed = false;
  bool ann = false, pq = false;
  FlagParser flags;
  flags.AddString("model", &model_path, "model path (.clpf)");
  flags.AddString("dataset", &dataset_path,
                  "interaction history (.clds or text)");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  flags.AddString("users", &users_csv,
                  "comma-separated dense user ids (a batched query)");
  flags.AddInt("k", &k, "list length");
  flags.AddString("exclude", &exclude_csv,
                  "comma-separated item ids to skip (business rules)");
  flags.AddBool("no-cold-fallback", &no_cold_fallback,
                "return empty lists for cold users instead of popularity");
  flags.AddBool("packed", &packed,
                "score through the packed SIMD snapshot (the publish gate "
                "checks it against the exact model first); default is the "
                "exact double path");
  flags.AddBool("ann", &ann,
                "retrieve through the IVF shortlist with fused exact "
                "re-rank (implies --packed; the publish gate refuses the "
                "index below a measured recall@10 of 0.95)");
  flags.AddInt("nprobe", &nprobe,
               "clusters probed per ANN query (0 = the index default; "
               "higher = better recall, more items scored)");
  flags.AddBool("pq", &pq,
                "quantized first-pass scoring inside the ANN shortlist: "
                "stream int8 codes, exact-re-rank only the top "
                "--rerank-budget survivors; the gate measures the composed "
                "path's recall (requires --ann)");
  flags.AddInt("rerank-budget", &rerank_budget,
               "survivors the quantized pass hands to the exact re-rank "
               "(0 = the index default; requires --pq)");
  flags.AddInt("build-threads", &build_threads,
               "worker threads for the publish: the packed repack, the "
               "gate's catalog passes and, with --ann, the IVF/code-book "
               "build (0 = 1; the index is identical at any count)");
  flags.AddString("metrics-out", &metrics_out,
                  "dump serving metrics (latency histograms, outcome "
                  "counters) as JSON to this path");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (dataset_path.empty()) {
    return Fail(Status::InvalidArgument("--dataset required"));
  }
  if (Status s = CheckListLength(k); !s.ok()) return Fail(s);
  for (const auto& [flag, value, lo] :
       {std::tuple<const char*, int64_t, int64_t>{"nprobe", nprobe, 0},
        {"rerank-budget", rerank_budget, 0},
        {"build-threads", build_threads, 0}}) {
    if (Status s = CheckCount(flag, value, lo); !s.ok()) return Fail(s);
  }
  if (pq && !ann) {
    return Fail(Status::InvalidArgument("--pq requires --ann"));
  }
  if (rerank_budget != 0 && !pq) {
    return Fail(Status::InvalidArgument("--rerank-budget requires --pq"));
  }

  auto data = LoadAnyDataset(dataset_path, format, has_header);
  if (!data.ok()) return Fail(data.status());

  std::vector<UserId> users;
  for (const std::string& tok : Split(users_csv, ',')) {
    auto id = ParseInt64(Trim(tok));
    if (!id.ok()) return Fail(id.status());
    users.push_back(static_cast<UserId>(*id));
  }
  QueryOptions options;
  options.cold_start_fallback = !no_cold_fallback;
  options.ann = ann;
  options.ann_nprobe = static_cast<int32_t>(nprobe);
  options.pq = pq;
  options.rerank_budget = static_cast<int32_t>(rerank_budget);
  if (!exclude_csv.empty()) {
    for (const std::string& tok : Split(exclude_csv, ',')) {
      auto id = ParseInt64(Trim(tok));
      if (!id.ok()) return Fail(id.status());
      options.exclude.push_back(static_cast<ItemId>(*id));
    }
  }

  // One shard over the history: the model file goes through LoadModel's CRC
  // and then the canary gate (packed agreement, and with --ann the index
  // structure and recall checks); a refused publish is a failure here.
  ServerOptions server_options;
  server_options.packed = packed || ann;
  server_options.ann = ann;
  server_options.ivf.pq = pq;
  if (build_threads > 0) {
    server_options.ivf.build_threads = static_cast<int>(build_threads);
  }
  ModelServer server(*std::move(data), server_options);
  if (Status s = server.PublishModel(model_path); !s.ok()) return Fail(s);

  auto batch = server.RecommendBatch(users, static_cast<size_t>(k), options);
  if (!batch.ok()) return Fail(batch.status());
  for (size_t i = 0; i < users.size(); ++i) {
    std::printf("top-%lld for user %d:\n", static_cast<long long>(k),
                users[i]);
    for (const ScoredItem& item : batch->results[i]) {
      std::printf("  item %-8d score %.4f\n", item.item, item.score);
    }
  }
  PrintScoringPath(server.mutable_metrics(), server_options.packed);
  MaybeDumpMetrics(server.metrics(), metrics_out);
  return 0;
}

int RunServe(int argc, char** argv) {
  std::string model_path = "model.clpf", dataset_path, format = "tab";
  std::string users_csv = "0", metrics_out;
  std::string governor_name = "off", flight_dump;
  int64_t k = 10, threads = 2, queue_depth = 64, repeat = 1;
  int64_t deadline_us = 0, metrics_every = 0, governor_interval_ms = 50;
  int64_t shards = 1, nprobe = 0, rerank_budget = 0;
  int64_t build_threads = 0;
  double min_auc = 0.0;
  bool has_header = false, packed = true, ann = false, pq = false;
  FlagParser flags;
  flags.AddString("model", &model_path, "candidate model path (.clpf)");
  flags.AddString("dataset", &dataset_path,
                  "interaction history (.clds or text)");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  flags.AddString("users", &users_csv, "comma-separated dense user ids");
  flags.AddInt("k", &k, "list length");
  flags.AddInt("threads", &threads, "queries served at once");
  flags.AddInt("queue-depth", &queue_depth,
               "admission bound, at least 1: requests past this are shed "
               "(Unavailable)");
  flags.AddInt("deadline-us", &deadline_us,
               "per-query budget in microseconds (0 = unbounded)");
  flags.AddDouble("min-auc", &min_auc,
                  "canary sampled-AUC floor for the publish gate (0 = off)");
  flags.AddBool("packed", &packed,
                "serve through the packed SIMD fast path, gated by the "
                "canary agreement check (--packed=false for the exact "
                "double path)");
  flags.AddBool("ann", &ann,
                "serve through the IVF shortlist with fused exact re-rank "
                "(implies --packed); each publish builds the index and the "
                "canary gate refuses it below recall@10 0.95");
  flags.AddInt("nprobe", &nprobe,
               "clusters probed per ANN query (0 = the index default)");
  flags.AddBool("pq", &pq,
                "quantized first-pass scoring inside the ANN shortlist; "
                "publishes train the int8 code book alongside the index and "
                "the canary gate measures the composed quantized+re-rank "
                "recall (requires --ann)");
  flags.AddInt("rerank-budget", &rerank_budget,
               "survivors the quantized pass hands to the exact re-rank "
               "(0 = the index default; requires --pq)");
  flags.AddInt("build-threads", &build_threads,
               "worker threads for each publish: the packed repack, the "
               "canary gate's catalog passes and, with --ann, the "
               "IVF/code-book build (0 = 1)");
  flags.AddInt("repeat", &repeat, "times to replay the query set");
  flags.AddString("metrics-out", &metrics_out,
                  "dump serving metrics (latency histograms, outcome "
                  "counters) as JSON to this path");
  flags.AddInt("metrics-every", &metrics_every,
               "refresh --metrics-out every N replay rounds as well as at "
               "exit (0 = exit only)");
  flags.AddString("governor", &governor_name,
                  "serving governor: off (static knobs, default) or "
                  "ondemand (step on pressure, decay slowly)");
  flags.AddInt("governor-interval-ms", &governor_interval_ms,
               "governor tick cadence in milliseconds (at least 1)");
  flags.AddString("flight-dump", &flight_dump,
                  "dump the incident flight recorder (JSON) to this path at "
                  "exit and on every breaker trip");
  flags.AddInt("shards", &shards,
               "catalog shards for scatter-gather serving (default 1, the "
               "monolithic case; answers are bit-identical for any count)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (dataset_path.empty()) {
    return Fail(Status::InvalidArgument("--dataset required"));
  }
  if (Status s = CheckListLength(k); !s.ok()) return Fail(s);
  if (queue_depth < 1) {
    return Fail(Status::InvalidArgument(
        "--queue-depth must be at least 1, got " +
        std::to_string(queue_depth)));
  }
  for (const auto& [flag, value, lo] :
       {std::tuple<const char*, int64_t, int64_t>{"threads", threads, 1},
        {"shards", shards, 1},
        {"nprobe", nprobe, 0},
        {"rerank-budget", rerank_budget, 0},
        {"build-threads", build_threads, 0}}) {
    if (Status s = CheckCount(flag, value, lo); !s.ok()) return Fail(s);
  }
  if (pq && !ann) {
    return Fail(Status::InvalidArgument("--pq requires --ann"));
  }
  if (rerank_budget != 0 && !pq) {
    return Fail(Status::InvalidArgument("--rerank-budget requires --pq"));
  }
  const std::string governor_key = ToLower(governor_name);
  if (governor_key != "off" && governor_key != "ondemand") {
    return Fail(Status::InvalidArgument("unknown governor: " + governor_name +
                                        " (want off|ondemand)"));
  }
  if (governor_key == "ondemand" && governor_interval_ms < 1) {
    return Fail(Status::InvalidArgument(
        "--governor-interval-ms must be at least 1 with --governor "
        "ondemand, got " + std::to_string(governor_interval_ms)));
  }

  auto data = LoadAnyDataset(dataset_path, format, has_header);
  if (!data.ok()) return Fail(data.status());

  ServerOptions server_options;
  server_options.num_threads = static_cast<int>(threads);
  server_options.max_queue_depth = queue_depth;
  server_options.canary.min_auc = min_auc;
  server_options.packed = packed || ann;
  server_options.ann = ann;
  server_options.ivf.pq = pq;
  if (build_threads > 0) {
    server_options.ivf.build_threads = static_cast<int>(build_threads);
  }
  if (governor_key == "ondemand") {
    server_options.governor.emplace().interval_us = governor_interval_ms * 1000;
  }
  server_options.flight_dump_path = flight_dump;
  server_options.num_shards = static_cast<int32_t>(shards);

  std::vector<UserId> user_ids;
  for (const std::string& tok : Split(users_csv, ',')) {
    auto id = ParseInt64(Trim(tok));
    if (!id.ok()) return Fail(id.status());
    user_ids.push_back(static_cast<UserId>(*id));
  }
  QueryOptions query_options;
  query_options.deadline = std::chrono::microseconds(deadline_us);
  query_options.ann = ann;
  query_options.ann_nprobe = static_cast<int32_t>(nprobe);
  query_options.pq = pq;
  query_options.rerank_budget = static_cast<int32_t>(rerank_budget);

  ModelServer server(*std::move(data), server_options);
  if (server.num_shards() > 1) {
    std::printf("sharded serving: %s\n", server.shard_map().ToString().c_str());
  }
  if (server.governor() != nullptr) {
    std::printf("governor ondemand active (tick every %lld ms)\n",
                static_cast<long long>(governor_interval_ms));
  }

  // The candidate goes through the full canary gate; a rejection leaves the
  // server in degraded (popularity) mode rather than exiting.
  if (Status s = server.PublishModel(model_path); !s.ok()) {
    std::printf("publish rejected (%s); serving popularity fallback\n",
                s.ToString().c_str());
  } else {
    std::printf("published model v%lld to %d shard(s)\n",
                static_cast<long long>(server.version()),
                server.num_shards());
  }

  for (int64_t round = 0; round < repeat; ++round) {
    for (UserId u : user_ids) {
      auto got = server.Recommend(u, static_cast<size_t>(k), query_options);
      if (!got.ok()) {
        std::printf("user %d: %s\n", u, got.status().ToString().c_str());
        continue;
      }
      std::printf("top-%lld for user %d:\n", static_cast<long long>(k), u);
      for (const ScoredItem& item : *got) {
        std::printf("  item %-8d score %.4f\n", item.item, item.score);
      }
    }
    // Periodic scrape point: each dump atomically replaces the file, so a
    // concurrent reader always sees a complete JSON document.
    if (metrics_every > 0 && (round + 1) % metrics_every == 0) {
      MaybeDumpMetrics(server.metrics(), metrics_out);
    }
  }
  PrintScoringPath(server.mutable_metrics(), server_options.packed);
  std::printf("serving stats: %s\n", server.stats().ToString().c_str());
  if (server.num_shards() > 1) {
    for (const ShardStatsSnapshot& shard : server.shard_stats()) {
      std::printf("  %s\n", shard.ToString().c_str());
    }
  }
  if (const ServingGovernor* governor = server.governor()) {
    const GovernorKnobs knobs = governor->knobs();
    std::printf("governor: ondemand ticks=%lld adjustments=%lld "
                "queue_depth=%lld deadline_budget_us=%lld\n",
                static_cast<long long>(governor->ticks()),
                static_cast<long long>(governor->adjustments()),
                static_cast<long long>(knobs.max_queue_depth),
                static_cast<long long>(knobs.deadline_budget_us));
  }
  if (!flight_dump.empty()) {
    // Exit dump complements the automatic on-trip dumps: the recorder's
    // final state lands on disk even for incident-free runs.
    if (Status s = server.DumpFlightRecorder(flight_dump); !s.ok()) {
      std::printf("flight-recorder dump failed: %s\n", s.ToString().c_str());
    } else {
      std::printf("flight recorder dumped to %s\n", flight_dump.c_str());
    }
  }
  MaybeDumpMetrics(server.metrics(), metrics_out);
  return 0;
}

int RunOnline(int argc, char** argv) {
  std::string dataset_path, format = "tab", metrics_out, flight_dump;
  std::string wal_dir = "online-wal", checkpoint_dir = "online-ckpt";
  std::string users_csv = "0";
  int64_t cycle_every = 64, epochs = 2, reservoir = 1024, factors = 16;
  int64_t seed = 1, fsync_every = 1, k = 10, threads = 1;
  double holdout = 0.2, min_auc = 0.0, learning_rate = 0.05;
  bool has_header = false;
  FlagParser flags;
  flags.AddString("dataset", &dataset_path,
                  "interaction history (.clds or text); a --holdout fraction "
                  "is replayed as the live arrival stream, the rest "
                  "bootstraps the online trainer");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  flags.AddString("wal-dir", &wal_dir,
                  "interaction WAL directory (created if missing; an "
                  "existing log is recovered and resumed)");
  flags.AddString("checkpoint-dir", &checkpoint_dir,
                  "WAL-position⇄model checkpoint directory (empty disables "
                  "crash recovery of the trainer state)");
  flags.AddDouble("holdout", &holdout,
                  "fraction of the dataset replayed as live arrivals");
  flags.AddInt("cycle-every", &cycle_every,
               "arrivals between deployment cycles (train + checkpoint + "
               "canary-gated publish)");
  flags.AddInt("epochs", &epochs, "training passes per increment");
  flags.AddInt("reservoir", &reservoir,
               "historical interactions mixed into every increment");
  flags.AddInt("factors", &factors, "latent dimensionality of the model");
  flags.AddDouble("learning-rate", &learning_rate, "incremental SGD rate");
  flags.AddInt("threads", &threads,
               "SGD workers per increment (1 = bit-reproducible)");
  flags.AddInt("fsync-every", &fsync_every,
               "fsync the WAL every N appends (0 = never, 1 = every append)");
  flags.AddDouble("min-auc", &min_auc,
                  "canary sampled-AUC floor for every online publish "
                  "(0 = off)");
  flags.AddInt("seed", &seed, "seed for init, sampling, and the reservoir");
  flags.AddString("users", &users_csv,
                  "comma-separated user ids queried after the replay");
  flags.AddInt("k", &k, "list length for the post-replay queries");
  flags.AddString("metrics-out", &metrics_out,
                  "dump online + serving metrics as JSON to this path");
  flags.AddString("flight-dump", &flight_dump,
                  "dump the online flight recorder (wal-recovery, "
                  "online-publish, auc-regression-rollback events) here");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (dataset_path.empty()) {
    return Fail(Status::InvalidArgument("--dataset required"));
  }
  if (Status s = CheckListLength(k); !s.ok()) return Fail(s);

  auto data = LoadAnyDataset(dataset_path, format, has_header);
  if (!data.ok()) return Fail(data.status());
  std::printf("loaded %s\n", data->Summary().c_str());

  // The full dataset fixes the serving envelope; the split's train half
  // warm-starts the trainer and its test half becomes the arrival stream.
  TrainTestSplit split =
      SplitRandom(*data, 1.0 - holdout, static_cast<uint64_t>(seed));

  MetricsRegistry metrics;
  ServerOptions server_options;
  server_options.canary.min_auc = min_auc;
  ModelServer server(*std::move(data), server_options);

  DeployerOptions options;
  options.wal.dir = wal_dir;
  options.wal.fsync_every = fsync_every;
  options.checkpoint_dir = checkpoint_dir;
  options.min_increment_records = cycle_every;
  options.flight_dump_path = flight_dump;
  options.metrics = &metrics;
  options.trainer.epochs_per_increment = epochs;
  options.trainer.reservoir_capacity = reservoir;
  options.trainer.sgd.num_factors = static_cast<int32_t>(factors);
  options.trainer.sgd.learning_rate = learning_rate;
  options.trainer.sgd.seed = static_cast<uint64_t>(seed);
  options.trainer.sgd.num_threads = static_cast<int>(threads);
  options.trainer.sgd.divergence.policy = DivergencePolicy::kHalt;

  ContinuousDeployer deployer(&server, split.train, options);
  if (Status s = deployer.Start(); !s.ok()) return Fail(s);
  std::printf(
      "online lifecycle up: wal at %s (position %lld, %lld already "
      "trained)\n",
      wal_dir.c_str(), static_cast<long long>(deployer.wal_position()),
      static_cast<long long>(deployer.trained_position()));

  // Replay the held-out interactions as the live day: ingest (WAL +
  // trainer) and run a deployment cycle whenever enough records pend.
  int64_t arrivals = 0;
  for (UserId u = 0; u < split.test.num_users(); ++u) {
    for (ItemId i : split.test.ItemsOf(u)) {
      if (Status s = deployer.Ingest(u, i); !s.ok()) return Fail(s);
      ++arrivals;
      auto cycled = deployer.RunCycle();
      if (!cycled.ok()) return Fail(cycled.status());
    }
  }
  // Flush the partial tail through one final forced cycle.
  if (auto flushed = deployer.RunCycle(/*force=*/true); !flushed.ok()) {
    return Fail(flushed.status());
  }
  std::printf(
      "replayed %lld arrivals: %lld increments, model %dx%d, serving v%lld "
      "(trained through position %lld of %lld)\n",
      static_cast<long long>(arrivals),
      static_cast<long long>(deployer.trainer().increments()),
      deployer.trainer().num_users(), deployer.trainer().num_items(),
      static_cast<long long>(deployer.published_version()),
      static_cast<long long>(deployer.trained_position()),
      static_cast<long long>(deployer.wal_position()));

  for (const std::string& tok : Split(users_csv, ',')) {
    auto id = ParseInt64(Trim(tok));
    if (!id.ok()) return Fail(id.status());
    const UserId u = static_cast<UserId>(*id);
    auto got = server.Recommend(u, static_cast<size_t>(k));
    if (!got.ok()) {
      std::printf("user %d: %s\n", u, got.status().ToString().c_str());
      continue;
    }
    std::printf("top-%lld for user %d:\n", static_cast<long long>(k), u);
    for (const ScoredItem& item : *got) {
      std::printf("  item %-8d score %.4f\n", item.item, item.score);
    }
  }
  std::printf("serving stats: %s\n", server.stats().ToString().c_str());
  if (!flight_dump.empty()) {
    if (Status s = deployer.DumpFlightRecorder(flight_dump); !s.ok()) {
      std::printf("flight-recorder dump failed: %s\n", s.ToString().c_str());
    } else {
      std::printf("flight recorder dumped to %s\n", flight_dump.c_str());
    }
  }
  MaybeDumpMetrics(metrics, metrics_out);
  return 0;
}

int RunStats(int argc, char** argv) {
  std::string input, format = "tab";
  bool has_header = false;
  FlagParser flags;
  flags.AddString("input", &input, "ratings file (.clds or text formats)");
  flags.AddString("format", &format, "tab|colons|csv|pairs");
  flags.AddBool("header", &has_header, "skip the first line of the input");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    return s.code() == StatusCode::kFailedPrecondition ? 0 : Fail(s);
  }
  if (input.empty()) return Fail(Status::InvalidArgument("--input required"));
  auto data = LoadAnyDataset(input, format, has_header);
  if (!data.ok()) return Fail(data.status());
  std::printf("%s\n", ComputeStats(*data).ToString().c_str());
  return 0;
}

void PrintUsage() {
  std::fputs(
      "usage: clapf_cli <train|evaluate|recommend|serve|online|stats> "
      "[flags]\n"
      "run a subcommand with --help for its flags\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so FlagParser sees the subcommand's flags.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "train") return RunTrain(sub_argc, sub_argv);
  if (command == "evaluate") return RunEvaluate(sub_argc, sub_argv);
  if (command == "recommend") return RunRecommend(sub_argc, sub_argv);
  if (command == "serve") return RunServe(sub_argc, sub_argv);
  if (command == "online") return RunOnline(sub_argc, sub_argv);
  if (command == "stats") return RunStats(sub_argc, sub_argv);
  PrintUsage();
  return 1;
}

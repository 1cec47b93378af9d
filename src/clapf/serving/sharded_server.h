#ifndef CLAPF_SERVING_SHARDED_SERVER_H_
#define CLAPF_SERVING_SHARDED_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/ivf_index.h"
#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/serving/admission_queue.h"
#include "clapf/serving/flight_recorder.h"
#include "clapf/serving/governor.h"
#include "clapf/serving/model_shard.h"
#include "clapf/serving/publish_request.h"
#include "clapf/serving/serving_stats.h"
#include "clapf/serving/shard_map.h"
#include "clapf/util/status.h"
#include "clapf/util/thread_pool.h"
#include "clapf/util/top_k.h"

namespace clapf {

/// Validation gate a candidate model must clear before a hot swap. The gate
/// is always on: every publish checks the candidate's dimensions and
/// integrity, the packed-vs-exact agreement of each packed slice on a fixed
/// sample of users (every item of the GateSampleUsers(num_users, 64) users
/// must agree within PackedScoreBound(); the sample is evenly spaced and can
/// hold a few more users than 64: 20000 users visit 65) and each ANN
/// slice's index, and, with a positive `min_auc`, runs the sampled-AUC probe
/// (20 sampled negatives per case on a re-held-out tenth of the serving
/// history).
struct CanaryOptions {
  /// Sampled-AUC floor on the held-out probe set; <= 0 skips the probe.
  /// A structurally broken model (corrupt factors, wrong training run)
  /// scores ~0.5 here while any healthy model clears 0.6 comfortably.
  double min_auc = 0.0;
  /// Seed for the probe split and negative sampling (deterministic gate).
  uint64_t seed = 1;

  // ANN half of the gate, only exercised when ServerOptions::ann builds an
  // IVF index per publish. The dimension + structural checks (the index
  // matches the candidate's shape and its permutation is coherent) always
  // run; the measured check re-ranks `ann_recall_users` sampled users at the
  // index's default nprobe and refuses the publish when recall@kGateRecallK
  // (model/ivf_index.h) vs the exact fused scan falls below
  // `ann_recall_floor`. This is the PackedScoreBound discipline extended
  // into the approximate regime: the contract is measured at the gate, not
  // hoped for.
  /// Measured-recall floor; <= 0 skips the measured check.
  double ann_recall_floor = 0.95;
  /// Sample size of the recall probe: the GateSampleUsers(num_users,
  /// ann_recall_users) users, evenly spaced (a few more than this count
  /// when it does not divide the user count).
  int32_t ann_recall_users = 16;
};

/// Post-publish error-rate circuit breaker, always on. Queries are grouped
/// into tumbling windows; when a full-enough window's internal-error rate
/// crosses the threshold, the server rolls back to the previous snapshot
/// (or degrades to the popularity fallback when none exists).
struct BreakerOptions {
  /// Queries per evaluation window.
  int64_t window = 64;
  /// Smallest window the breaker will judge — avoids tripping on one
  /// unlucky error at low traffic.
  int64_t min_samples = 16;
  /// Internal-error fraction at which the breaker trips.
  double error_threshold = 0.5;

  // Half-open recovery, always on. After a trip the rolled-back-from
  // snapshot is kept aside; once `cooldown_queries` further queries have
  // been answered by the fallback, it is re-admitted for a
  // `probe_window`-query probe. A probe whose internal-error rate stays below
  // `error_threshold` reinstates the snapshot (no republish needed); a
  // failed probe reverts to the fallback and discards the snapshot for good.
  // Every transition lands in the flight recorder.
  /// Queries served by the fallback before a probe window opens.
  int64_t cooldown_queries = 64;
  /// Queries the probe window admits against the tripped snapshot.
  int64_t probe_window = 16;
};

/// ModelServer construction knobs.
struct ServerOptions {
  /// Queries served at once, each on its caller's thread; admitted callers
  /// past this many wait for a run slot.
  int num_threads = 2;
  /// Admission bound: requests past this many admitted callers, running or
  /// waiting, are shed with Unavailable.
  int64_t max_queue_depth = 64;
  /// Build a packed SIMD snapshot of each published slice and serve queries
  /// through the fused score+top-k fast path. The canary gate then also
  /// verifies packed-vs-exact agreement on its fixed user sample
  /// (CanaryOptions) and runs its AUC probe through the packed slices, so
  /// what is vetted is what serves. Disable to serve the exact double path
  /// only.
  bool packed = true;
  /// Build an IVF approximate-MIPS index over each published packed slice
  /// (requires `packed`) and canary-verify it (structure + measured
  /// recall@k, CanaryOptions::ann_recall_*) before adoption, so queries
  /// opting in with QueryOptions::ann take the sub-linear probe + re-rank
  /// path. When the shard's previous slice carries a compatible index the
  /// publish rebuilds incrementally: frozen centroids, only items whose
  /// parameters changed are reassigned (the online incremental-publish
  /// path). Off by default: index builds cost a k-means pass per publish.
  bool ann = false;
  /// Index build knobs when `ann` is set. With `ivf.pq` on, each publish
  /// additionally trains/refreshes the per-lane int8 code book next to the
  /// repack and the canary gate measures the *composed* quantized+re-rank
  /// recall instead of the probe-only recall (same floor) — queries opt in
  /// per request with QueryOptions::pq. `ivf.build_threads` is the thread
  /// budget of every publish, with or without `ann`: the packed repack and
  /// agreement check, the index build and the index gate all spread their
  /// passes over it.
  IvfOptions ivf;
  CanaryOptions canary;
  BreakerOptions breaker;
  /// Adaptive knob control (bounds, tick cadence). Absent, the default, the
  /// knobs stay at their configured values and queries pass through
  /// untouched; present, an ondemand ServingGovernor steers them.
  std::optional<GovernorOptions> governor;
  /// When non-empty, the flight recorder is dumped (JSON, atomic write) to
  /// this path every time the circuit breaker trips — the post-incident
  /// black box is on disk before anyone asks for it.
  std::string flight_dump_path;
  /// Queries served slower than this many microseconds are recorded in the
  /// flight recorder as slow-query events; 0 disables.
  int64_t slow_query_us = 0;

  /// Contiguous catalog shards, each with its own slice, packed snapshot,
  /// breaker, and flight recorder. Clamped to [1, ceil(num_items / 8)]; the
  /// default single shard is the monolithic server.
  int32_t num_shards = 1;
  /// Scatter worker threads fanning one query across shards; 0 picks
  /// min(num_shards, 4). Irrelevant when num_shards == 1 (inline scoring).
  int scatter_threads = 0;
};

/// Reply from ModelServer::RecommendBatch: results[i] answers users[i].
/// When the batch deadline expires mid-flight the work already done is
/// returned rather than discarded; `complete` flags which users finished (an
/// unfinished user's list is empty, never a half-scored ranking).
struct BatchReply {
  std::vector<std::vector<ScoredItem>> results;
  /// complete[i] != 0 iff results[i] holds the finished answer for users[i].
  std::vector<uint8_t> complete;
  /// Number of set flags in `complete`.
  size_t num_complete = 0;
  /// True when the deadline expired before every user finished.
  bool deadline_exceeded = false;
};

/// The serving front end: owns the interaction history, a bounded
/// admission gate that runs each query on its caller's thread, and
/// RCU-style snapshots of the served model that training can hot-swap while
/// queries run. The catalog is partitioned into ServerOptions::num_shards
/// contiguous item ranges (ShardMap); one shard — the default — is the
/// monolithic server, and every shard count runs the same code.
///
/// Query path (scatter-gather): one admission decision at the front (the
/// global bound), then the admitted caller takes a consistent cut of every
/// shard's current slice under one mutex acquisition and fans the shards
/// out over a dedicated scatter pool (one shard scores inline). Each shard
/// runs Retrieve over its local items, raising a shared ThresholdBroadcast
/// bar so shards early-reject against each other's k-th-best; the gathered
/// per-shard heaps merge through one TopKAccumulator whose (score desc,
/// item asc) total order makes the result BIT-IDENTICAL for every shard
/// count — same scores, same order, same smaller-id tie-break. Cold-start
/// and min_score are decided once at the gather side, so a user who is warm
/// globally is never mistaken for cold in a shard where they happen to have
/// no history.
///
/// Publish path: Publish(candidate) → canary gate → atomic swap. A
/// PublishRequest targets one shard or all of them, always with a
/// full-catalog candidate. Each target shard slices the candidate
/// (FactorModel::CopyItemsFrom — bit-identical doubles; a shard covering
/// the whole catalog adopts a candidate the server owns), repacks it,
/// builds its IVF index when ServerOptions::ann is set, and runs its own
/// gate (integrity on one-shard publishes, packed agreement, the ANN
/// structure + recall gate). An
/// all-shard publish first scans the whole candidate's integrity and, after
/// the slices are built, runs the sampled-AUC probe through them — the
/// packed kernels that will serve. All built slices swap in under one mutex
/// acquisition, so readers never observe a half-published model; a
/// one-shard publish reloads that shard while the others keep serving —
/// incremental hot reload. A failed gate leaves the prior slices serving.
///
/// Serving chains: one per shard, created by the first publish. Before it
/// the server consults no shard and answers from popularity.
///
/// Failure domains: after a publish, a serve-time integrity check turns a
/// non-finite score into Internal, charged to the shard owning the item;
/// only that shard's breaker window eats the error. A tripped shard rolls
/// back to its previous slice, or degrades to its popularity slice when it
/// has none, while the other shards keep serving the model. Each shard's
/// breaker then runs half-open recovery, always on — cooldown, probe
/// window, reinstate-or-revert (BreakerOptions::cooldown_queries et al.) —
/// scoped to its own failure domain: only queries that consulted the shard
/// advance its cooldown and probe, and a probe verdict swaps that shard's
/// slice alone.
/// The optional governor is server-wide: its levers (admission depth,
/// deadline budget) are shared resources.
///
/// Readers copy shared_ptrs under a mutex held for nanoseconds, then score
/// lock-free on their private cut; publishes swap the pointers under the
/// same mutex, so an in-flight query keeps its slices alive until it
/// finishes (grace period by refcount — the RCU pattern).
///
/// Thread-safe: queries, publishes, and stats reads may run concurrently.
class ModelServer {
 public:
  /// Serves `history` (copied) across ServerOptions::num_shards shards. No
  /// model is published yet, so the server starts degraded to popularity.
  ModelServer(Dataset history, const ServerOptions& options);

  /// Stops the governor ticker. No query may still be running.
  ~ModelServer();

  /// The unified publish entry point: resolves `request` (an in-memory
  /// candidate or a CRC-verified model file — the implicit PublishRequest
  /// conversions make `PublishModel(path)` read naturally; one shard or
  /// all), gates it, and swaps it in. On any gate failure (InvalidArgument
  /// / Corruption / FailedPrecondition) nothing swaps and the prior slices
  /// keep serving.
  Status PublishModel(PublishRequest request);

  /// Publishes a candidate the caller keeps to every shard, with no copy
  /// before the gate: the gate stages read `candidate` in place, and each
  /// built slice takes its own copy in tiles over
  /// ServerOptions::ivf.build_threads (the handover stage). On one shard a
  /// candidate of 32 MB or more gets its slice's storage allocated beside
  /// the stages and filled after them. Nothing refers to `candidate` once
  /// this returns. Same gates, verdicts and served bytes as publishing a
  /// copy.
  Status PublishModel(const FactorModel& candidate);

  /// Publishes a candidate the server may take: a one-shard server adopts
  /// it without a copy. Same as PublishModel(PublishRequest(candidate)).
  Status PublishModel(FactorModel&& candidate);

  /// Scatter-gather top-k for one user, run on the calling thread once the
  /// admission gate lets it in. Outcomes: the ranked list, DeadlineExceeded
  /// (options.deadline expired), Unavailable (shed by the admission bound),
  /// OutOfRange (bad id), or Internal (shard-attributed integrity failure —
  /// that shard's breaker food).
  Result<std::vector<ScoredItem>> Recommend(UserId u, size_t k,
                                            const QueryOptions& options = {});

  /// Alias of Recommend, kept so code written against the sharded server's
  /// method name still compiles.
  Result<std::vector<ScoredItem>> RecommendOne(
      UserId u, size_t k, const QueryOptions& options = {}) {
    return Recommend(u, k, options);
  }

  /// Batched scatter-gather as one admitted unit of work; an expired
  /// deadline returns the completed prefix with the rest flagged.
  Result<BatchReply> RecommendBatch(std::span<const UserId> users, size_t k,
                                    const QueryOptions& options = {});

  const ShardMap& shard_map() const { return shard_map_; }
  int32_t num_shards() const { return shard_map_.num_shards(); }

  /// Per-shard serving versions, ascending shard order; 0 for a shard with
  /// no valid slice (all zeros before the first publish).
  std::vector<int64_t> shard_versions() const;

  /// The oldest slice version serving any shard — with one shard, the
  /// version of the snapshot serving; 0 while degraded().
  int64_t version() const;

  /// True while ANY shard answers from the popularity fallback (no valid
  /// slice) — including before the first publish.
  bool degraded() const;

  /// Point-in-time copy of the server-wide counters.
  ServingStatsSnapshot stats() const;

  /// Per-shard counters, shards in ascending id order regardless of which
  /// thread or registry iteration produced them (deterministic aggregation).
  std::vector<ShardStatsSnapshot> shard_stats() const;

  /// The server's metrics registry: every serving counter, the
  /// serving.query.latency_us / serving.batch.latency_us histograms, the
  /// admission and ANN instrumentation, and the per-shard
  /// serving.shard.<id>.* counters. Snapshot or export it to scrape the
  /// server (see ExportPrometheusText / WriteMetricsJsonFile).
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry* mutable_metrics() { return &metrics_; }

  /// The server-wide incident flight recorder (the FlightRecorder default
  /// ring of 256 events, as is each shard's): every degradation decision
  /// (governor adjustments, sheds, deadline misses, breaker trips, probes)
  /// of every shard lands here and can be dumped at any time —
  /// automatically on a breaker trip when ServerOptions::flight_dump_path is
  /// set.
  const FlightRecorder& flight_recorder() const { return recorder_; }

  /// Shard-scoped stream: only shard `s`'s lifecycle and failures, so a
  /// one-shard incident reads without grepping the global stream.
  const FlightRecorder& shard_flight_recorder(int32_t shard) const {
    return *shard_recorders_[static_cast<size_t>(shard)];
  }

  /// Dumps the global flight recorder as JSON to `path` (atomic write).
  Status DumpFlightRecorder(const std::string& path,
                            const FlightDumpOptions& options = {}) const;

  /// The serving governor, or null when ServerOptions::governor is absent.
  /// Its knobs() are the live values; in drills, drive the control loop
  /// deterministically with TickGovernor() (a no-op without a governor).
  const ServingGovernor* governor() const { return governor_.get(); }
  void TickGovernor() {
    if (governor_ != nullptr) governor_->Tick();
  }

  const Dataset& history() const { return history_; }

 private:
  /// One shard's serving chain. current/previous are guarded by
  /// snapshot_mu_ (the RCU pattern, per shard).
  struct ShardChain {
    std::shared_ptr<const ShardSlice> current;
    std::shared_ptr<const ShardSlice> previous;  // breaker rollback target
    // Half-open recovery (guarded by snapshot_mu_ like the chain itself):
    // the slice the breaker rolled back from (probe candidate), and what
    // `current` pointed at before the probe swapped the candidate back in
    // (revert target).
    std::shared_ptr<const ShardSlice> tripped;
    std::shared_ptr<const ShardSlice> probe_fallback;
  };
  /// Tumbling-window breaker phase of one shard. kClosed judges full
  /// windows and trips; kCooldown counts consulted queries toward the probe;
  /// kHalfOpen judges the probe window against the re-admitted slice.
  enum class ShardBreakerState { kClosed, kCooldown, kHalfOpen };
  /// Per-shard breaker window and half-open state, guarded by breaker_mu_.
  /// A publish to the shard resets the whole struct — a fresh slice starts
  /// closed with an empty window.
  struct BreakerWindow {
    int64_t queries = 0;
    int64_t errors = 0;
    ShardBreakerState state = ShardBreakerState::kClosed;
    int64_t cooldown_left = 0;  // consulted queries until the probe opens
    int64_t probe_left = 0;     // judged queries left in the probe window
    int64_t probe_errors = 0;   // internal errors seen during the probe
  };
  /// What a finished query pins on the shards it touched, for stats and
  /// breaker attribution.
  struct QueryAttribution {
    std::vector<int32_t> consulted;  // shards scored, ascending
    int32_t blame = -1;              // shard charged with the error, or -1
  };

  /// Resolves the request's candidate (in-memory vs file) and validates
  /// routing. Gate-style failures are recorded as canary rejects.
  Result<FactorModel> ResolveCandidate(PublishRequest* request);

  /// The publish behind every PublishModel overload: gates `candidate` for
  /// `target` and swaps it in. `owned` (may be null) is `candidate` itself
  /// when the server may move from it.
  Status PublishCandidate(const FactorModel& candidate, FactorModel* owned,
                          int32_t target);

  /// Consistent cut of the chains (one mutex hold). Empty before the first
  /// publish.
  std::vector<std::shared_ptr<const ShardSlice>> AcquireCut() const;

  /// True when no shard of `cut` has a slice (never published, or every
  /// shard tripped dark): the whole answer then comes from popularity.
  /// After the first publish every shard is marked consulted.
  bool AllDark(const std::vector<std::shared_ptr<const ShardSlice>>& cut,
               QueryAttribution* attr) const;

  /// What an admitted caller runs.
  Result<std::vector<ScoredItem>> ServeOne(UserId u, size_t k,
                                           const QueryOptions& options,
                                           QueryAttribution* attr);
  Result<BatchReply> ServeBatch(std::span<const UserId> users, size_t k,
                                const QueryOptions& options,
                                QueryAttribution* attr);

  /// The scatter-gather core for one (validated) user against one cut.
  Result<std::vector<ScoredItem>> ServeUser(
      UserId u, size_t k, const QueryOptions& options,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      const std::vector<std::shared_ptr<const ShardSlice>>& cut,
      QueryAttribution* attr);

  /// Popularity ranking over the whole catalog with history/option
  /// exclusions — the answer for a cold user, and while no shard has a
  /// slice. Empty for a cold user with QueryOptions::cold_start_fallback
  /// off.
  Result<std::vector<ScoredItem>> ServeDegraded(
      UserId u, size_t k, const QueryOptions& options) const;

  /// Stats + per-shard breaker accounting for one finished query.
  void RecordOutcome(const Status& status, const QueryAttribution& attr);

  /// Breaker action for one shard: roll it back to its previous slice or
  /// degrade it to popularity; the other shards are untouched. Returns true
  /// when the rolled-back-from slice was stashed for a later half-open
  /// probe.
  bool TripShardBreaker(int32_t shard);

  /// Half-open transitions for one shard; called off breaker_mu_ (they take
  /// snapshot_mu_). BeginShardProbe returns false when a publish superseded
  /// the stashed slice and there is nothing to probe.
  bool BeginShardProbe(int32_t shard);
  void ResolveShardProbe(int32_t shard, bool recovered, double error_rate);

  /// Records one shard-scoped event into both the global and the shard's
  /// own recorder.
  void RecordShardEvent(int32_t shard, FlightEventKind kind,
                        const std::string& detail, int64_t a = 0,
                        int64_t b = 0, double x = 0.0);

  Dataset history_;
  std::vector<double> popularity_;  // full-catalog fallback scores
  ServerOptions options_;
  Dataset probe_train_;  // canary probe split (all-shard publishes)
  Dataset probe_test_;
  ShardMap shard_map_;
  std::vector<ModelShard> shards_;

  mutable std::mutex snapshot_mu_;
  std::vector<ShardChain> chains_;  // one per shard, from the first publish
  int64_t next_version_ = 1;  // one ticket per publish

  std::mutex breaker_mu_;
  std::vector<BreakerWindow> breaker_windows_;  // one per shard

  // Declaration order matters: the registry precedes every view into it,
  // the recorders precede the scatter pool whose workers write them, and
  // the governor comes last so its ticker never outlives what it observes.
  MetricsRegistry metrics_;
  Histogram* query_latency_;  // serving.query.latency_us
  Histogram* batch_latency_;  // serving.batch.latency_us
  RetrievalMetrics retrieval_metrics_;  // ann.* query telemetry
  PublishStageMetrics publish_stages_;  // serving.publish.stage.*_us
  FlightRecorder recorder_;
  std::vector<std::unique_ptr<FlightRecorder>> shard_recorders_;
  AdmissionQueue queue_;
  std::unique_ptr<ThreadPool> scatter_pool_;  // null when num_shards == 1
  ServingStats stats_;
  std::vector<std::unique_ptr<ShardServingStats>> shard_stats_;
  std::unique_ptr<ServingGovernor> governor_;  // null without a governor
};

/// Alias kept so code written against the sharded server's class name still
/// compiles.
using ShardedModelServer = ModelServer;

}  // namespace clapf

#endif  // CLAPF_SERVING_SHARDED_SERVER_H_

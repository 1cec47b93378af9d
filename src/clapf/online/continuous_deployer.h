#ifndef CLAPF_ONLINE_CONTINUOUS_DEPLOYER_H_
#define CLAPF_ONLINE_CONTINUOUS_DEPLOYER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "clapf/core/checkpoint.h"
#include "clapf/data/dataset.h"
#include "clapf/online/online_trainer.h"
#include "clapf/online/wal.h"
#include "clapf/serving/flight_recorder.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/status.h"

namespace clapf {

/// ContinuousDeployer construction knobs.
struct DeployerOptions {
  /// The durable interaction log. `wal.dir` must be set.
  WalOptions wal;
  /// Directory for the WAL-position⇄model checkpoints; empty disables
  /// checkpointing (crash recovery then retrains the whole WAL).
  std::string checkpoint_dir;
  int32_t keep_checkpoints = 3;
  /// Incremental-training knobs (seed, epochs, reservoir, divergence guard).
  OnlineTrainerOptions trainer;
  /// Records accumulated before RunCycle trains and publishes; smaller is
  /// fresher, larger amortizes the canary gate.
  int64_t min_increment_records = 1;
  /// When non-empty, the deployer's own flight recorder (the FlightRecorder
  /// default ring of 256 events) is dumped here on every publish
  /// rollback — the online incident black box.
  std::string flight_dump_path;
  /// Telemetry sink for the online.* counters; also forwarded to the WAL
  /// and (as sgd.metrics) the trainer when they have none of their own.
  MetricsRegistry* metrics = nullptr;
};

/// The crash-safe online lifecycle loop: ingest → train → publish.
///
///   Ingest(u, i)  appends to the WAL (durable per the fsync policy) and
///                 feeds the OnlineTrainer — an arrival is never trained
///                 before it is logged (write-ahead, by construction).
///   RunCycle()    once enough records are pending: one guarded training
///                 increment, a WAL-position⇄model checkpoint, and a push
///                 through the serving canary gate (integrity + sampled-AUC
///                 floor). A gate refusal rolls the trainer back to the
///                 last published-good model and records an
///                 auc-regression-rollback incident — a bad incremental
///                 step can never reach traffic, and cannot poison the next
///                 increment either.
///   Start()       recovery: replays the WAL (torn tails truncated, corrupt
///                 segments skipped), restores the newest valid checkpoint,
///                 re-ingests the un-trained suffix, and republishes the
///                 recovered model through the same gate.
///
/// Crash consistency. The checkpoint stores the model bits together with
/// the WAL position whose records they have consumed
/// (TrainerCheckpointState::iteration). Everything else the trainer needs —
/// dimensions, reservoir, fresh tail — is a deterministic function of the
/// record sequence, so recovery re-derives it by replaying the WAL from
/// position 0 through the same Ingest path (training skipped for the
/// already-consumed prefix). A crash anywhere in ingest→train→publish
/// therefore resumes bit-consistently with an uninterrupted run over the
/// same WAL: same model, same reservoir, same future increments.
///
/// The serving universe (the ModelServer's history dimensions) is fixed at
/// server construction — size it with headroom. The trainer grows inside
/// that envelope on the fly; published snapshots are zero-padded up to the
/// envelope (a never-seen id scores 0 and is handled by the cold-start
/// fallback). Arrivals outside the envelope are refused at Ingest.
///
/// Thread-safe: Ingest/RunCycle/positions are serialized on an internal
/// mutex; serving traffic runs concurrently against the ModelServer, whose
/// shard count the loop does not care about.
class ContinuousDeployer {
 public:
  /// `server` is borrowed and must outlive the deployer; its history fixes
  /// the serving envelope. `bootstrap` is the offline batch history the
  /// trainer warm-starts from (dimensions <= the envelope).
  ContinuousDeployer(ModelServer* server, const Dataset& bootstrap,
                     const DeployerOptions& options);

  /// Opens the WAL (running torn-tail recovery), loads the newest valid
  /// checkpoint, replays the log to rebuild ingest state, records a
  /// wal-recovery incident, and — when a checkpoint was recovered —
  /// republishes the recovered model through the canary gate. Must be
  /// called once before Ingest/RunCycle.
  Status Start();

  /// Durably logs and ingests one arrival. InvalidArgument for ids outside
  /// the serving envelope; IoError when the WAL append fails (the record
  /// was NOT ingested — log and ingest state never diverge).
  Status Ingest(UserId u, ItemId i);

  /// One deployment cycle. Returns true when an increment ran (enough
  /// pending records — or any at all with `force`, the end-of-day flush),
  /// false when there was nothing to do. A divergent increment or refused
  /// publish is handled internally (rollback + incident) and still returns
  /// true; only infrastructure failures (WAL, checkpoint I/O) surface as
  /// errors.
  Result<bool> RunCycle(bool force = false);

  /// Exclusive upper bound of durably logged records.
  int64_t wal_position() const;
  /// Records consumed by training (the checkpoint handshake position).
  int64_t trained_position() const;
  /// Serving version of the last snapshot that cleared the gate, 0 if none.
  int64_t published_version() const;

  const OnlineTrainer& trainer() const { return trainer_; }

  /// The online loop's incident stream: wal-recovery, online-publish, and
  /// auc-regression-rollback events (same dump machinery as the server's).
  const FlightRecorder& flight_recorder() const { return recorder_; }
  Status DumpFlightRecorder(const std::string& path,
                            const FlightDumpOptions& options = {}) const;

 private:
  /// Copy of the trainer model zero-padded to the serving envelope.
  FactorModel PaddedSnapshot() const;

  Status PublishLocked(const std::string& why);

  Status DumpFlightRecorderLocked(const std::string& path) const;

  ModelServer* server_;
  DeployerOptions options_;
  int32_t envelope_users_;  // serving history dims (the fixed universe)
  int32_t envelope_items_;

  mutable std::mutex mu_;
  std::unique_ptr<InteractionWal> wal_;  // null until Start
  OnlineTrainer trainer_;
  CheckpointManager checkpoints_;
  FactorModel last_good_;       // last published-good trainer model
  bool have_last_good_ = false;
  int64_t trained_position_ = 0;
  int64_t published_version_ = 0;
  bool started_ = false;

  FlightRecorder recorder_;

  // Telemetry (null when options_.metrics is null).
  Counter* ingested_ = nullptr;          // online.ingested_total
  Counter* rejected_ = nullptr;          // online.ingest_rejected_total
  Counter* cycles_ = nullptr;            // online.cycles_total
  Counter* publishes_ = nullptr;         // online.publishes_total
  Counter* publish_rollbacks_ = nullptr; // online.publish_rollbacks_total
  Counter* increment_rollbacks_ = nullptr;  // online.increment_rollbacks_total
  Counter* recoveries_ = nullptr;        // online.recoveries_total
  Gauge* wal_position_gauge_ = nullptr;  // online.wal_position
  Gauge* trained_gauge_ = nullptr;       // online.trained_position
};

}  // namespace clapf

#endif  // CLAPF_ONLINE_CONTINUOUS_DEPLOYER_H_

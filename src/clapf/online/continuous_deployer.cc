#include "clapf/online/continuous_deployer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "clapf/util/logging.h"

namespace clapf {

namespace {

constexpr uint64_t kIncrementSalt = 0x696e6372ULL;  // "incr"

/// Seed of the increment that starts at WAL position `position`: a pure
/// function of (base seed, position), so a crash-replayed increment samples
/// and expands exactly like the run it replaces.
uint64_t IncrementSeed(uint64_t base_seed, int64_t position) {
  uint64_t state = base_seed ^ kIncrementSalt ^ static_cast<uint64_t>(position);
  return SplitMix64(state);
}

CheckpointOptions MakeCheckpointOptions(const DeployerOptions& options) {
  CheckpointOptions ckpt;
  ckpt.dir = options.checkpoint_dir;
  // The deployer checkpoints at its own cadence (every cycle); interval just
  // has to be positive for the manager to consider itself enabled.
  ckpt.interval = 1;
  ckpt.keep_last = options.keep_checkpoints;
  ckpt.resume = true;
  return ckpt;
}

OnlineTrainerOptions MakeTrainerOptions(const DeployerOptions& options) {
  OnlineTrainerOptions trainer = options.trainer;
  if (trainer.sgd.metrics == nullptr) trainer.sgd.metrics = options.metrics;
  return trainer;
}

}  // namespace

ContinuousDeployer::ContinuousDeployer(ModelServer* server,
                                       const Dataset& bootstrap,
                                       const DeployerOptions& options)
    : server_(server),
      options_(options),
      envelope_users_(server->history().num_users()),
      envelope_items_(server->history().num_items()),
      trainer_(bootstrap, MakeTrainerOptions(options)),
      checkpoints_(MakeCheckpointOptions(options)),
      last_good_(1, 1, options.trainer.sgd.num_factors,
                 options.trainer.sgd.use_item_bias) {
  CLAPF_CHECK(server_ != nullptr);
  CLAPF_CHECK(!options_.wal.dir.empty());
  CLAPF_CHECK(options_.min_increment_records > 0);
  CLAPF_CHECK(bootstrap.num_users() <= envelope_users_);
  CLAPF_CHECK(bootstrap.num_items() <= envelope_items_);
  if (options_.metrics != nullptr) {
    MetricsRegistry* m = options_.metrics;
    ingested_ = m->GetCounter("online.ingested_total");
    rejected_ = m->GetCounter("online.ingest_rejected_total");
    cycles_ = m->GetCounter("online.cycles_total");
    publishes_ = m->GetCounter("online.publishes_total");
    publish_rollbacks_ = m->GetCounter("online.publish_rollbacks_total");
    increment_rollbacks_ = m->GetCounter("online.increment_rollbacks_total");
    recoveries_ = m->GetCounter("online.recoveries_total");
    wal_position_gauge_ = m->GetGauge("online.wal_position");
    trained_gauge_ = m->GetGauge("online.trained_position");
  }
}

Status ContinuousDeployer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("deployer already started");
  }

  WalOptions wal_options = options_.wal;
  if (wal_options.metrics == nullptr) wal_options.metrics = options_.metrics;
  auto wal = InteractionWal::Open(wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal.value());

  // Restore the newest valid checkpoint: the model bits plus the WAL
  // position whose records they have consumed. A checkpoint from a
  // different seed or an incompatible shape is ignored (fresh start), not
  // trusted.
  bool recovered_checkpoint = false;
  if (checkpoints_.enabled()) {
    CLAPF_RETURN_IF_ERROR(checkpoints_.Init());
    auto loaded = checkpoints_.LoadLatest();
    if (loaded.ok()) {
      const TrainerCheckpointState& state = loaded->state;
      const FactorModel& model = loaded->model;
      if (state.seed != options_.trainer.sgd.seed) {
        CLAPF_LOG(Warning) << "online checkpoint ignored: seed mismatch";
      } else if (model.num_factors() != options_.trainer.sgd.num_factors ||
                 model.num_users() > envelope_users_ ||
                 model.num_items() > envelope_items_) {
        CLAPF_LOG(Warning) << "online checkpoint ignored: shape mismatch";
      } else {
        trained_position_ = std::min(state.iteration, wal_->next_index());
        trainer_.RestoreModel(model);
        last_good_ = model;
        have_last_good_ = true;
        recovered_checkpoint = true;
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      CLAPF_LOG(Warning) << "online checkpoint load failed, starting fresh: "
                         << loaded.status().ToString();
    }
  }

  // Replay the whole log through the live Ingest path: the reservoir and
  // dimensions are a pure function of the record sequence, so this rebuilds
  // them bit-identically; only the already-trained prefix is kept out of
  // the fresh tail.
  bool discarded = trained_position_ == 0;
  auto replayed =
      wal_->Replay(0, [&](int64_t index, const WalRecord& record) {
        if (!discarded && index >= trained_position_) {
          trainer_.DiscardTail();
          discarded = true;
        }
        trainer_.Ingest(record.user, record.item);
      });
  if (!replayed.ok()) return replayed.status();
  if (!discarded) trainer_.DiscardTail();
  const WalReplayStats& stats = replayed.value();

  std::string detail = "segments=" + std::to_string(stats.segments_scanned) +
                       " records=" + std::to_string(stats.records_delivered) +
                       " torn_bytes=" + std::to_string(stats.torn_tail_bytes) +
                       " corrupt_segments=" +
                       std::to_string(stats.corrupt_segments) +
                       " dropped=" + std::to_string(stats.dropped_records);
  recorder_.Record(FlightEventKind::kWalRecovery, detail, wal_->next_index(),
                   trained_position_);
  if (recoveries_ != nullptr) recoveries_->Inc();
  if (wal_position_gauge_ != nullptr) {
    wal_position_gauge_->Set(static_cast<double>(wal_->next_index()));
  }
  if (trained_gauge_ != nullptr) {
    trained_gauge_->Set(static_cast<double>(trained_position_));
  }
  started_ = true;

  // A recovered model goes back through the same canary gate as any other
  // snapshot — recovery never skips vetting. Gate refusal is handled inside
  // (incident + rollback), not surfaced: the server keeps serving whatever
  // it already trusted.
  if (recovered_checkpoint) PublishLocked("recovery");
  return Status::OK();
}

Status ContinuousDeployer::Ingest(UserId u, ItemId i) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("deployer not started");
  if (u < 0 || u >= envelope_users_ || i < 0 || i >= envelope_items_) {
    if (rejected_ != nullptr) rejected_->Inc();
    return Status::InvalidArgument(
        "arrival (" + std::to_string(u) + ", " + std::to_string(i) +
        ") outside the serving envelope " + std::to_string(envelope_users_) +
        "x" + std::to_string(envelope_items_));
  }
  // Write-ahead: the record is durable (per the fsync policy) before the
  // trainer sees it, so log and trainer state never diverge — a failed
  // append ingests nothing.
  CLAPF_RETURN_IF_ERROR(wal_->Append(WalRecord{u, i}));
  trainer_.Ingest(u, i);
  if (ingested_ != nullptr) ingested_->Inc();
  if (wal_position_gauge_ != nullptr) {
    wal_position_gauge_->Set(static_cast<double>(wal_->next_index()));
  }
  return Status::OK();
}

Result<bool> ContinuousDeployer::RunCycle(bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("deployer not started");
  const int64_t end_position = wal_->next_index();
  const int64_t pending = end_position - trained_position_;
  if (pending <= 0 || (!force && pending < options_.min_increment_records)) {
    return false;
  }
  if (cycles_ != nullptr) cycles_->Inc();

  // Make the pending records durable before training on them: a crash after
  // this point replays the same increment from the same bits.
  CLAPF_RETURN_IF_ERROR(wal_->Sync());

  const uint64_t seed =
      IncrementSeed(options_.trainer.sgd.seed, trained_position_);
  Status increment = trainer_.TrainIncrement(seed);
  trained_position_ = end_position;
  if (trained_gauge_ != nullptr) {
    trained_gauge_->Set(static_cast<double>(trained_position_));
  }

  if (!increment.ok()) {
    // DivergenceGuard halted and the trainer restored its pre-increment
    // bits. Consume the tail anyway — a deterministic divergence would
    // otherwise re-fire forever — and checkpoint the restored model at the
    // advanced position so a crash does not re-run the divergent step.
    trainer_.DiscardTail();
    if (increment_rollbacks_ != nullptr) increment_rollbacks_->Inc();
    recorder_.Record(FlightEventKind::kInternalError,
                     "online increment halted: " + increment.ToString(),
                     trained_position_);
    if (checkpoints_.enabled()) {
      TrainerCheckpointState state;
      state.iteration = trained_position_;
      state.seed = options_.trainer.sgd.seed;
      CLAPF_RETURN_IF_ERROR(checkpoints_.Write(trainer_.model(), state));
    }
    return true;
  }

  // Handshake order: checkpoint (model ⇄ WAL position) first, then publish.
  // A crash between the two resumes from this checkpoint and simply
  // republishes the same snapshot through the gate.
  if (checkpoints_.enabled()) {
    TrainerCheckpointState state;
    state.iteration = trained_position_;
    state.seed = options_.trainer.sgd.seed;
    CLAPF_RETURN_IF_ERROR(checkpoints_.Write(trainer_.model(), state));
  }
  PublishLocked("cycle");
  return true;
}

Status ContinuousDeployer::PublishLocked(const std::string& why) {
  Status published = server_->PublishModel(PaddedSnapshot());
  if (published.ok()) {
    published_version_ = server_->version();
    last_good_ = trainer_.model();
    have_last_good_ = true;
    if (publishes_ != nullptr) publishes_->Inc();
    recorder_.Record(FlightEventKind::kOnlinePublish, why, published_version_,
                     trained_position_);
    return published;
  }

  // The canary gate refused the snapshot (integrity or sampled-AUC floor):
  // the regression must not poison the next increment either, so the
  // trainer rolls back to the last published-good bits and the checkpoint
  // is rewritten to match — crash or no crash, the refused model is gone.
  if (publish_rollbacks_ != nullptr) publish_rollbacks_->Inc();
  recorder_.Record(FlightEventKind::kAucRegressionRollback,
                   why + ": " + published.ToString(), published_version_,
                   trained_position_);
  CLAPF_LOG(Warning) << "online publish refused (" << why
                     << "), trainer rolled back: " << published.ToString();
  if (have_last_good_) {
    trainer_.RestoreModel(last_good_);
    if (checkpoints_.enabled()) {
      TrainerCheckpointState state;
      state.iteration = trained_position_;
      state.seed = options_.trainer.sgd.seed;
      Status rewrite = checkpoints_.Write(trainer_.model(), state);
      if (!rewrite.ok()) {
        CLAPF_LOG(Warning) << "online rollback checkpoint failed: "
                           << rewrite.ToString();
      }
    }
  }
  if (!options_.flight_dump_path.empty()) {
    Status dumped = DumpFlightRecorderLocked(options_.flight_dump_path);
    if (!dumped.ok()) {
      CLAPF_LOG(Warning) << "online flight dump failed: " << dumped.ToString();
    }
  }
  return published;
}

FactorModel ContinuousDeployer::PaddedSnapshot() const {
  FactorModel padded = trainer_.model();
  if (padded.num_users() < envelope_users_ ||
      padded.num_items() < envelope_items_) {
    // stddev = 0 pads with zero rows and consumes no rng draws: a
    // never-trained id scores 0 everywhere, deterministically.
    Rng unused(0);
    padded.ExpandTo(envelope_users_, envelope_items_, unused, 0.0);
  }
  return padded;
}

Status ContinuousDeployer::DumpFlightRecorderLocked(
    const std::string& path) const {
  return recorder_.DumpJsonFile(path);
}

int64_t ContinuousDeployer::wal_position() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ != nullptr ? wal_->next_index() : 0;
}

int64_t ContinuousDeployer::trained_position() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trained_position_;
}

int64_t ContinuousDeployer::published_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_version_;
}

Status ContinuousDeployer::DumpFlightRecorder(
    const std::string& path, const FlightDumpOptions& options) const {
  return recorder_.DumpJsonFile(path, options);
}

}  // namespace clapf

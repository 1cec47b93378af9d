#ifndef CLAPF_UTIL_FAULT_INJECTION_H_
#define CLAPF_UTIL_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace clapf {

/// Library locations that can be told to fail on demand. Each point is a
/// counter: production code reports a "hit" every time it passes the point,
/// and an armed schedule decides whether that hit fires the fault.
enum class FaultPoint : int {
  /// Model/checkpoint serialization silently writes only a prefix of the
  /// payload (a torn write: the crash happened between write and fsync).
  kModelWriteShort = 0,
  /// One bit of the serialized model/checkpoint payload is flipped before it
  /// reaches disk (silent media corruption).
  kModelWriteBitFlip,
  /// The atomic-rename publish step of a model/checkpoint write fails, as if
  /// the process died after writing the temp file but before renaming it.
  kModelRename,
  /// The interactions loader treats the current line as malformed.
  kLoaderBadLine,
  /// The SGD hot loop's margin becomes NaN for one iteration (a poisoned
  /// gradient), exercising the DivergenceGuard reaction paths.
  kSgdStepNan,
  /// One ranker scoring block in the serving path stalls (sleeps), so a
  /// per-query deadline deterministically expires mid-scan.
  kServeSlowBlock,
  /// A candidate model handed to ModelServer::PublishModel is poisoned (one
  /// factor becomes NaN) before the canary gate runs — the gate must reject
  /// it.
  kServeCorruptCandidate,
  /// One served top-k score is rewritten to NaN after ranking, so the
  /// post-publish serve-time integrity check fails and feeds the breaker.
  kServeScoreNan,
  /// An admitted query stalls in its run slot before it serves, backing the
  /// admission queue up to its bound so overload shedding kicks in.
  kServeQueueStall,
  /// A WAL append writes only a prefix of the record frame and the process
  /// "dies" (the writer is poisoned): the classic torn tail that replay must
  /// truncate after a reopen.
  kWalAppendTorn,
  /// The WAL's durability fsync fails (EIO-style), leaving the appended
  /// records' persistence uncertain.
  kWalFsyncFail,
  /// WAL segment rotation fails to open the next segment file; appends keep
  /// landing in the old segment until a later rotation succeeds.
  kWalRotateFail,
  /// WAL replay treats the current record's CRC as mismatched, dropping the
  /// rest of that segment (silent media corruption at read time).
  kWalReplayCorrupt,
  /// The freshly built IVF index of a publish is desynced from the candidate
  /// model (its local→global assignment scrambled) before the canary gate
  /// runs — the measured-recall gate must refuse the publish.
  kAnnCorruptIndex,
  /// The freshly built quantized code book of a publish is scrambled before
  /// the canary gate runs (geometry and floats intact, code bytes garbage) —
  /// only the measured *composed* recall gate can refuse this one.
  kAnnCorruptCodes,
  kNumFaultPoints,  // sentinel, keep last
};

/// Human-readable name of a fault point, for logs and test failure messages.
const char* FaultPointName(FaultPoint point);

/// When and how often an armed fault point fires.
struct FaultSpec {
  /// 1-based hit count at which the fault first fires.
  int64_t trigger_at_hit = 1;
  /// How many consecutive hits fire once triggered; -1 = every hit forever.
  int64_t max_fires = 1;
};

/// Process-wide fault-injection registry, RocksDB FaultInjectionTestFS style:
/// compiled into every build, and a handful of branch-predictable no-op
/// checks unless a test arms it. Thread-safe: the serving drills hit armed
/// points from concurrent query threads, so hit/fire accounting is mutex
/// guarded (only ever taken while a point is armed) and the hot-path
/// `armed()` check is a relaxed atomic load.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms `point` with `spec`, resetting its hit/fire counters.
  void Arm(FaultPoint point, FaultSpec spec = {});

  /// Disarms `point`; its counters survive for post-mortem inspection.
  void Disarm(FaultPoint point);

  /// Disarms every point and zeroes all counters.
  void Reset();

  /// True when at least one point is armed. Hot loops hoist this check so an
  /// unarmed build pays nothing per iteration.
  bool armed() const {
    return num_armed_.load(std::memory_order_relaxed) > 0;
  }

  /// Records a hit of `point` and returns true when the armed schedule says
  /// this hit fires. Always false for an unarmed point.
  bool ShouldFire(FaultPoint point);

  /// Counters for assertions: how often the point was passed / fired.
  int64_t hits(FaultPoint point) const;
  int64_t fires(FaultPoint point) const;

  /// Applies any armed payload faults (short write, bit flip) to a serialized
  /// model/checkpoint image just before it is written to disk.
  void MutateModelPayload(std::string* payload);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;

  struct PointState {
    bool armed = false;
    FaultSpec spec;
    int64_t hits = 0;
    int64_t fires = 0;
  };

  PointState& state(FaultPoint point) {
    return points_[static_cast<size_t>(point)];
  }
  const PointState& state(FaultPoint point) const {
    return points_[static_cast<size_t>(point)];
  }

  mutable std::mutex mutex_;
  std::array<PointState, static_cast<size_t>(FaultPoint::kNumFaultPoints)>
      points_{};
  std::atomic<int> num_armed_{0};
};

}  // namespace clapf

#endif  // CLAPF_UTIL_FAULT_INJECTION_H_

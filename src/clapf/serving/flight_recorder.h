#ifndef CLAPF_SERVING_FLIGHT_RECORDER_H_
#define CLAPF_SERVING_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "clapf/util/status.h"

namespace clapf {

/// What one flight-recorder entry describes. The vocabulary covers every
/// degradation decision the serving layer can take, so a post-incident dump
/// reads as a causal narrative: pressure built (shed/deadline-miss/slow
/// entries), the governor reacted (governor-adjust), the breaker fired
/// (breaker-trip → rollback/degrade), and recovery ran (probe-*).
enum class FlightEventKind : uint8_t {
  kGovernorAdjust = 0,  ///< a governor moved one knob (a=old, b=new)
  kBreakerTrip,         ///< error-rate breaker fired (a=version, x=error rate)
  kRollback,            ///< breaker reverted to the previous snapshot (b=to)
  kDegrade,             ///< breaker fell back to popularity (no rollback target)
  kProbeStart,          ///< half-open probe began against snapshot a
  kProbeRecovered,      ///< probe passed; snapshot a reinstated (x=error rate)
  kProbeFailed,         ///< probe failed; reverted to snapshot b (x=error rate)
  kPublish,             ///< candidate cleared the canary gate (a=version,
                        ///< b=shard, x=share of agreement pairs checked)
  kCanaryReject,        ///< candidate refused pre-publish
  kShed,                ///< request refused at admission (a=queue depth)
  kDeadlineMiss,        ///< query expired mid-scan
  kSlowQuery,           ///< served above ServerOptions::slow_query_us (x=us)
  kInternalError,       ///< serve-time integrity failure (breaker food)
  kWalRecovery,         ///< online WAL replayed on startup (a=position, b=trained)
  kOnlinePublish,       ///< online snapshot cleared the gate (a=version, b=position)
  kAucRegressionRollback,  ///< online publish refused; trainer rolled back
  kNumFlightEventKinds,  // sentinel, keep last
};

/// Stable kebab-case name of an event kind ("governor-adjust", ...), used by
/// the JSON dump and test assertions.
const char* FlightEventKindName(FlightEventKind kind);

/// Bytes reserved for an event's free-text detail, terminator included.
/// Longer details are truncated: events must stay fixed-size PODs so the
/// ring's writers never allocate or lock.
inline constexpr size_t kFlightEventDetailBytes = 88;

/// One recorded event. Trivially copyable by design — the ring stores events
/// as raw words behind per-slot sequence counters.
struct FlightEvent {
  uint64_t seq = 0;       ///< global record index (monotonic, never reused)
  int64_t elapsed_us = 0; ///< microseconds since the recorder was created
  FlightEventKind kind = FlightEventKind::kGovernorAdjust;
  int64_t a = 0;          ///< kind-specific argument (see FlightEventKind)
  int64_t b = 0;          ///< kind-specific argument
  double x = 0.0;         ///< kind-specific measurement (rate, latency, ...)
  char detail[kFlightEventDetailBytes] = {};  ///< NUL-terminated free text
};

/// Rendering knobs for FlightRecorder dumps.
struct FlightDumpOptions {
  /// When false, every event's elapsed_us renders as 0 — the dump then
  /// depends only on the event sequence, which is what makes golden/replay
  /// tests deterministic. Incident dumps keep timestamps on.
  bool include_timestamps = true;
};

/// Fixed-size mutex-free ring of recent serving incidents, dmesg-style: the
/// newest `capacity` events are retained, older ones are silently
/// overwritten, and a dump is cheap enough to take while the server is on
/// fire — which is exactly when it is taken.
///
/// Concurrency design: writers claim a monotonically increasing ticket with
/// one fetch_add and publish the event into slot `ticket % capacity` behind
/// a per-slot sequence counter (odd = ticket*2+1 = write in progress, even =
/// ticket*2+2 = complete — a per-slot seqlock). A writer claims its slot by
/// CAS-ing the sequence up to its odd value, so a slot's sequence only
/// grows: a writer that finds a newer ticket there (a writer preempted for
/// a whole lap of the ring) drops its stale event, which dropped() already
/// counts as overwritten; one that finds an older writer's odd value yields
/// until that writer completes. So one writer at a time stores a slot's
/// words, every slot ends holding its newest ticket, and a quiescent
/// Snapshot() returns exactly min(recorded(), capacity()) events. Readers
/// validate the slot sequence before and after copying and skip any slot a
/// concurrent writer is rewriting, so Snapshot() never blocks a writer and
/// never returns a torn event. All slot accesses go through std::atomic
/// (sequentially consistent on the sequence word), so the drills run clean
/// under ThreadSanitizer; events are rare (decisions, not queries), so the
/// ordering cost is irrelevant.
///
/// Thread-safe: any number of concurrent Record() and Snapshot()/Dump*()
/// calls.
class FlightRecorder {
 public:
  /// Ring of at least `capacity` events (rounded up to a power of two,
  /// minimum 8).
  explicit FlightRecorder(size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event, overwriting the oldest when full. Allocation-free;
  /// it waits (yielding) only while an older writer of the same slot is
  /// still storing. `detail` is truncated to kFlightEventDetailBytes - 1.
  void Record(FlightEventKind kind, std::string_view detail, int64_t a = 0,
              int64_t b = 0, double x = 0.0);

  /// The retained events, oldest first. Slots mid-rewrite by a concurrent
  /// writer are skipped, so under churn the result may hold slightly fewer
  /// than capacity() events; each returned event is internally consistent.
  std::vector<FlightEvent> Snapshot() const;

  /// JSON rendering of Snapshot(), following the exporter conventions
  /// (deterministic key order, FormatMetricValue for doubles):
  ///   {"flight_recorder": {"capacity": N, "recorded": R, "dropped": D,
  ///    "events": [{"seq": ..., "elapsed_us": ..., "kind": "...",
  ///                "detail": "...", "a": ..., "b": ..., "x": ...}, ...]}}
  std::string DumpJson(const FlightDumpOptions& options = {}) const;

  /// Writes DumpJson() to `path` atomically (temp file + rename), so an
  /// incident dump read mid-write is never torn.
  Status DumpJsonFile(const std::string& path,
                      const FlightDumpOptions& options = {}) const;

  /// Lifetime totals: events ever recorded, and how many of those have been
  /// overwritten (recorded - retained).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  // One event serialized into whole words so readers/writers move it through
  // std::atomic<uint64_t> — torn reads are detected by `seq`, races by TSan
  // never (every access is atomic).
  static constexpr size_t kPayloadWords =
      (sizeof(FlightEvent) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct alignas(64) Slot {
    // 0 = never written; ticket*2 + 1 = write in progress; ticket*2 + 2 =
    // holds the completed event for `ticket`.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kPayloadWords];
  };

  /// Copies the completed event for `ticket` out of its slot; false when the
  /// slot no longer (or not yet) holds that ticket.
  bool ReadSlot(uint64_t ticket, FlightEvent* out) const;

  size_t capacity_;  // power of two
  uint64_t mask_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<uint64_t> next_{0};  // next ticket to assign
  std::vector<Slot> slots_;
};

}  // namespace clapf

#endif  // CLAPF_SERVING_FLIGHT_RECORDER_H_

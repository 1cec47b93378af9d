#include "clapf/serving/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "clapf/obs/exporter.h"
#include "clapf/util/fs.h"

namespace clapf {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

// Details are short ASCII status text, but a model-load error message could
// smuggle in a quote or control byte; escape the JSON string minimally.
std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kGovernorAdjust: return "governor-adjust";
    case FlightEventKind::kBreakerTrip: return "breaker-trip";
    case FlightEventKind::kRollback: return "rollback";
    case FlightEventKind::kDegrade: return "degrade";
    case FlightEventKind::kProbeStart: return "probe-start";
    case FlightEventKind::kProbeRecovered: return "probe-recovered";
    case FlightEventKind::kProbeFailed: return "probe-failed";
    case FlightEventKind::kPublish: return "publish";
    case FlightEventKind::kCanaryReject: return "canary-reject";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kDeadlineMiss: return "deadline-miss";
    case FlightEventKind::kSlowQuery: return "slow-query";
    case FlightEventKind::kInternalError: return "internal-error";
    case FlightEventKind::kWalRecovery: return "wal-recovery";
    case FlightEventKind::kOnlinePublish: return "online-publish";
    case FlightEventKind::kAucRegressionRollback:
      return "auc-regression-rollback";
    case FlightEventKind::kNumFlightEventKinds: break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      start_(std::chrono::steady_clock::now()),
      slots_(capacity_) {}

void FlightRecorder::Record(FlightEventKind kind, std::string_view detail,
                            int64_t a, int64_t b, double x) {
  FlightEvent event;
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_seq_cst);
  event.seq = ticket;
  event.elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.x = x;
  const size_t n = std::min(detail.size(), kFlightEventDetailBytes - 1);
  std::memcpy(event.detail, detail.data(), n);
  event.detail[n] = '\0';

  uint64_t words[kPayloadWords] = {};
  std::memcpy(words, &event, sizeof(event));

  Slot& slot = slots_[ticket & mask_];
  // Claim the slot so that its sequence only grows. A newer ticket already
  // there (in progress or complete) wins: this stale event is dropped, and
  // dropped() counts it as overwritten. An older writer still storing
  // (odd sequence) finishes first: it never waits on anyone, so the yield
  // loop ends. One writer at a time stores the words, so a slot never
  // mixes two events.
  const uint64_t claim = ticket * 2 + 1;
  uint64_t seen = slot.seq.load(std::memory_order_seq_cst);
  for (;;) {
    if (seen > claim) return;
    if ((seen & 1) != 0) {
      std::this_thread::yield();
      seen = slot.seq.load(std::memory_order_seq_cst);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seen, claim,
                                       std::memory_order_seq_cst)) {
      break;
    }
  }
  // Per-slot seqlock, all sequentially consistent: the odd "in progress"
  // value is globally ordered before the word stores, which are ordered
  // before the even "complete" value, and the sequence never returns to a
  // value it held, so a reader whose before/after sequence loads both see
  // `complete` read the words of that one event.
  for (size_t i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_seq_cst);
  }
  slot.seq.store(ticket * 2 + 2, std::memory_order_seq_cst);
}

bool FlightRecorder::ReadSlot(uint64_t ticket, FlightEvent* out) const {
  const Slot& slot = slots_[ticket & mask_];
  const uint64_t want = ticket * 2 + 2;
  if (slot.seq.load(std::memory_order_seq_cst) != want) return false;
  uint64_t words[kPayloadWords];
  for (size_t i = 0; i < kPayloadWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_seq_cst);
  }
  if (slot.seq.load(std::memory_order_seq_cst) != want) return false;
  std::memcpy(out, words, sizeof(FlightEvent));
  return true;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_seq_cst);
  const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<FlightEvent> events;
  events.reserve(static_cast<size_t>(end - begin));
  for (uint64_t t = begin; t < end; ++t) {
    FlightEvent event;
    // A slot that fails validation is being rewritten by a racing writer
    // (or, near `begin`, was already overwritten): skip it rather than
    // block — the dump is a best-effort view of a live system.
    if (ReadSlot(t, &event)) events.push_back(event);
  }
  return events;
}

std::string FlightRecorder::DumpJson(const FlightDumpOptions& options) const {
  const std::vector<FlightEvent> events = Snapshot();
  std::string out = "{\"flight_recorder\":{\"capacity\":";
  out += std::to_string(capacity_);
  out += ",\"recorded\":";
  out += std::to_string(recorded());
  out += ",\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i != 0) out += ",";
    out += "{\"seq\":";
    out += std::to_string(e.seq);
    out += ",\"elapsed_us\":";
    out += std::to_string(options.include_timestamps ? e.elapsed_us : 0);
    out += ",\"kind\":\"";
    out += FlightEventKindName(e.kind);
    out += "\",\"detail\":\"";
    out += EscapeJson(e.detail);
    out += "\",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += ",\"x\":";
    out += FormatMetricValue(e.x);
    out += "}";
  }
  out += "]}}\n";
  return out;
}

Status FlightRecorder::DumpJsonFile(const std::string& path,
                                    const FlightDumpOptions& options) const {
  return WriteFileAtomic(path, DumpJson(options));
}

}  // namespace clapf

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

/// Compile-time master switch for simulation tracing. With
/// -DGEMSD_TRACING_ENABLED=0 every record site folds to nothing (the
/// recorder pointer in Metrics becomes a constexpr nullptr and the guarded
/// branches are dead code); the default build keeps tracing available behind
/// a single predictable null-pointer test per site, which is unreachable from
/// the event-kernel hot loops (bench_kernel never touches a record site).
#ifndef GEMSD_TRACING_ENABLED
#define GEMSD_TRACING_ENABLED 1
#endif

namespace gemsd::obs {

/// Event taxonomy. Span/instant names and per-transaction phase totals share
/// one 8-bit id space (docs/observability.md documents the mapping to Chrome
/// trace categories).
enum class TraceName : std::uint8_t {
  // spans / instants (transaction- or device-scoped)
  kTxn,          ///< whole transaction lifecycle (arrival -> commit)
  kMplWait,      ///< input-queue wait for an MPL slot
  kCpu,          ///< one CPU burst incl. processor queueing (value = wait)
  kLockWait,     ///< blocked lock request (value = page number)
  kPageRequest,  ///< direct page transfer from the owning node
  kIoRead,       ///< device-level page read (value = page number)
  kIoWrite,      ///< device-level page write (value = page number)
  kIoLog,        ///< log append
  kCommitIo,     ///< commit phase 1: log + FORCE writes (parallel)
  kMsgSend,      ///< send-side message processing (id = flow id)
  kMsgRecv,      ///< receive-side message processing (id = flow id)
  kRestart,      ///< deadlock victim restarts (instant)
  kDeadlock,     ///< deadlock detected, this txn is the victim (instant)
  kWaitEdge,     ///< wait-for edge: id waits for txn `value` (instant)
  kLockGrant,    ///< waiting lock request granted (instant, value = page);
                 ///< emitted at the LOGICAL grant — the kLockWait span is
                 ///< only recorded once the (possibly remote) waiter resumes
  kGemAccess,    ///< one GLT operation in GEM (entry read + C&S write-back,
                 ///< processor held); makes a lock holder's GLT activity
                 ///< visible to the critical-path profiler
  kCommit,       ///< commit point (instant)
  // per-transaction phase totals (merged into the txn span's args by the
  // exporter; values are the exact seconds added to Metrics::breakdown_*)
  kPhaseCpu,
  kPhaseCpuWait,
  kPhaseIo,
  kPhaseCc,
  kPhaseQueue,
  kCount
};

const char* to_string(TraceName n);
/// Chrome trace "cat" field for the event name ("txn", "cc", "io", "net",
/// "phase").
const char* category(TraceName n);

/// Per-name enable mask for --trace-filter: true where `pattern` (an ECMAScript
/// regex, matched with regex_search against to_string(name)) hits. The empty
/// pattern enables everything. Throws std::regex_error on a malformed pattern —
/// CLI front ends validate at parse time.
std::array<bool, static_cast<std::size_t>(TraceName::kCount)>
trace_name_filter(const std::string& pattern);

enum class TraceKind : std::uint8_t {
  Span,        ///< t = start, dur = duration
  Instant,     ///< t = time
  FlowBegin,   ///< message leaves `node` (id = flow id)
  FlowEnd,     ///< message arrives at `node`
  PhaseTotal,  ///< per-txn phase aggregate, value = seconds
};

/// One trace record. Trivially copyable and fixed-size by design: recording
/// is a bounds check plus a 40-byte store into a preallocated ring — no
/// allocation, no strings, no virtual dispatch on the simulation's hot paths.
struct TraceEvent {
  sim::SimTime t = 0.0;    ///< start (spans) or event time, simulated seconds
  double dur = 0.0;        ///< span duration (seconds)
  double value = 0.0;      ///< phase seconds / aux payload
  std::uint64_t id = 0;    ///< transaction id, flow id, or 0
  TraceName name = TraceName::kTxn;
  TraceKind kind = TraceKind::Span;
  std::int16_t node = -1;  ///< -1 = cluster-wide
  /// Partition id for page-scoped events (the page number rides in `value`;
  /// page numbers alone are ambiguous — every partition has its own space).
  std::int32_t aux = 0;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == 40);

/// Fixed-capacity ring buffer of trace events. When full, the oldest events
/// are overwritten (and counted as dropped) so a trace always holds the most
/// recent window — the matching txn span + phase totals are emitted together
/// at commit time, so the tail of a trace is always self-consistent.
///
/// Strictly single-threaded like everything else inside one simulation run;
/// parallel sweeps give each System its own recorder, which keeps traces
/// bit-identical at any --jobs value.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {
    buf_.reserve(capacity_);
  }

  /// Restrict recording to the names enabled in `mask` (see
  /// trace_name_filter). Filtered events are never stored, so they neither
  /// occupy ring slots nor show up in the `dropped` overwrite count — a tight
  /// filter is how long runs keep a complete window of just the interesting
  /// events.
  void set_filter(
      const std::array<bool, static_cast<std::size_t>(TraceName::kCount)>&
          mask) {
    enabled_ = mask;
  }

  void record(const TraceEvent& e) {
    if (!enabled_[static_cast<std::size_t>(e.name)]) return;
    if (buf_.size() < capacity_) {
      buf_.push_back(e);
      return;
    }
    buf_[head_] = e;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
  }

  void span(TraceName n, std::int16_t node, std::uint64_t id, sim::SimTime t0,
            sim::SimTime t1, double value = 0.0, std::int32_t aux = 0) {
    record(TraceEvent{t0, t1 - t0, value, id, n, TraceKind::Span, node, aux});
  }
  void instant(TraceName n, std::int16_t node, std::uint64_t id, sim::SimTime t,
               double value = 0.0, std::int32_t aux = 0) {
    record(TraceEvent{t, 0.0, value, id, n, TraceKind::Instant, node, aux});
  }
  void flow(TraceKind kind, std::int16_t node, std::uint64_t flow_id,
            sim::SimTime t, bool long_msg) {
    record(TraceEvent{t, 0.0, long_msg ? 1.0 : 0.0, flow_id,
                      kind == TraceKind::FlowBegin ? TraceName::kMsgSend
                                                   : TraceName::kMsgRecv,
                      kind, node, 0});
  }
  void phase_total(TraceName n, std::int16_t node, std::uint64_t id,
                   sim::SimTime t, double seconds) {
    record(TraceEvent{t, 0.0, seconds, id, n, TraceKind::PhaseTotal, node, 0});
  }

  /// Drop all recorded events (measurement-interval start).
  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Events in chronological record order (ring resolved).
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
               buf_.end());
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }

 private:
  static constexpr std::size_t kNames =
      static_cast<std::size_t>(TraceName::kCount);

  static std::array<bool, kNames> all_enabled() {
    std::array<bool, kNames> m;
    m.fill(true);
    return m;
  }

  std::size_t capacity_;
  std::vector<TraceEvent> buf_;
  std::size_t head_ = 0;  ///< oldest element once the ring has wrapped
  std::uint64_t dropped_ = 0;
  std::array<bool, kNames> enabled_ = all_enabled();
};

}  // namespace gemsd::obs

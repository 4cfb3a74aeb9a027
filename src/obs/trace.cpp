#include "obs/trace.hpp"

#include <array>
#include <map>
#include <regex>
#include <set>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"

namespace gemsd::obs {

const char* to_string(TraceName n) {
  switch (n) {
    case TraceName::kTxn: return "txn";
    case TraceName::kMplWait: return "mpl.wait";
    case TraceName::kCpu: return "cpu";
    case TraceName::kLockWait: return "lock.wait";
    case TraceName::kPageRequest: return "page.request";
    case TraceName::kIoRead: return "io.read";
    case TraceName::kIoWrite: return "io.write";
    case TraceName::kIoLog: return "io.log";
    case TraceName::kCommitIo: return "commit.io";
    case TraceName::kMsgSend: return "msg";
    case TraceName::kMsgRecv: return "msg";
    case TraceName::kRestart: return "restart";
    case TraceName::kDeadlock: return "deadlock";
    case TraceName::kWaitEdge: return "wait.edge";
    case TraceName::kLockGrant: return "lock.grant";
    case TraceName::kGemAccess: return "gem.access";
    case TraceName::kCommit: return "commit";
    case TraceName::kPhaseCpu: return "phase.cpu";
    case TraceName::kPhaseCpuWait: return "phase.cpu_wait";
    case TraceName::kPhaseIo: return "phase.io";
    case TraceName::kPhaseCc: return "phase.cc";
    case TraceName::kPhaseQueue: return "phase.queue";
    case TraceName::kCount: break;
  }
  return "?";
}

const char* category(TraceName n) {
  switch (n) {
    case TraceName::kTxn:
    case TraceName::kMplWait:
    case TraceName::kCpu:
    case TraceName::kCommitIo:
    case TraceName::kRestart:
    case TraceName::kCommit:
      return "txn";
    case TraceName::kLockWait:
    case TraceName::kPageRequest:
    case TraceName::kDeadlock:
    case TraceName::kWaitEdge:
    case TraceName::kLockGrant:
    case TraceName::kGemAccess:
      return "cc";
    case TraceName::kIoRead:
    case TraceName::kIoWrite:
    case TraceName::kIoLog:
      return "io";
    case TraceName::kMsgSend:
    case TraceName::kMsgRecv:
      return "net";
    default:
      return "phase";
  }
}

std::array<bool, static_cast<std::size_t>(TraceName::kCount)>
trace_name_filter(const std::string& pattern) {
  std::array<bool, static_cast<std::size_t>(TraceName::kCount)> mask;
  if (pattern.empty()) {
    mask.fill(true);
    return mask;
  }
  const std::regex re(pattern);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = std::regex_search(to_string(static_cast<TraceName>(i)), re);
  }
  return mask;
}

namespace {

constexpr std::uint64_t kTxnSeqMask = (std::uint64_t{1} << 40) - 1;

bool txn_scoped(const TraceEvent& e) {
  return e.id != 0 && e.name != TraceName::kMsgSend &&
         e.name != TraceName::kMsgRecv;
}

/// Events whose `value` is a page number and `aux` the page's partition.
bool page_scoped(TraceName n) {
  return n == TraceName::kLockWait || n == TraceName::kPageRequest ||
         n == TraceName::kIoRead || n == TraceName::kIoWrite ||
         n == TraceName::kDeadlock || n == TraceName::kLockGrant;
}

/// Chrome "tid": per-transaction lane inside the node's process (the txn id
/// low bits are the per-node sequence number), lane 0 for node background
/// work (write-backs, messages).
double event_tid(const TraceEvent& e) {
  return txn_scoped(e) ? static_cast<double>(e.id & kTxnSeqMask) + 1.0 : 0.0;
}

struct PhaseTotals {
  std::array<double, 5> sec{};  // cpu, cpu_wait, io, cc, queue
  int restarts = 0;
};

void emit_common(JsonWriter& w, const char* ph, const TraceEvent& e,
                 double pid) {
  w.kv("ph", ph);
  w.key("pid");
  w.value(pid);
  w.key("tid");
  w.value(event_tid(e));
  w.key("ts");
  w.value(e.t * 1e6);  // Chrome trace timestamps are microseconds
}

/// Cluster-wide counter tracks on pid 0, read from the time series: one
/// value per track at the end of each window that starts inside the
/// measurement interval (the trace ring itself is cleared at its start).
void write_counter_tracks(JsonWriter& w, const TsSeries& s) {
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    if (!s.measured(i)) continue;
    const TsWindow& win = s.windows[i];
    const double width = s.width(i);
    const std::pair<const char*, double> tracks[] = {
        {"throughput", static_cast<double>(win.commits) / width},
        {"response_ms", win.resp.mean_s() * 1e3},
        {"active_txns", win.admitted_s / width},
        {"mpl_queue", win.mpl_queue_s / width},
        {"cpu_busy", sim::safe_ratio(win.cpu_busy_s, width * s.cpu_capacity)},
        {"gem_busy", sim::safe_ratio(win.gem_busy_s, width * s.gem_capacity)},
        {"net_busy", sim::safe_ratio(win.net_busy_s, width * s.net_capacity)},
        {"disk_queue", win.disk_queue_s / width},
    };
    for (const auto& [name, value] : tracks) {
      w.begin_object();
      w.kv("name", name);
      w.kv("cat", "timeseries");
      w.kv("ph", "C");
      w.key("pid");
      w.value(std::int64_t{0});
      w.key("tid");
      w.value(std::int64_t{0});
      w.key("ts");
      w.value(s.window_end(i) * 1e6);
      w.key("args");
      w.begin_object();
      w.key("value");
      w.value(value);
      w.end_object();
      w.end_object();
    }
  }
}

}  // namespace

std::string chrome_trace_json(
    const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  // Pass 1: fold per-txn phase totals into the txn span's args, and find the
  // node set for process-name metadata.
  std::unordered_map<std::uint64_t, PhaseTotals> phases;
  std::set<int> nodes;
  for (const TraceEvent& e : tel.events) {
    if (e.node >= 0) nodes.insert(e.node);
    if (e.kind == TraceKind::PhaseTotal) {
      auto& pt = phases[e.id];
      switch (e.name) {
        case TraceName::kPhaseCpu: pt.sec[0] = e.value; break;
        case TraceName::kPhaseCpuWait: pt.sec[1] = e.value; break;
        case TraceName::kPhaseIo: pt.sec[2] = e.value; break;
        case TraceName::kPhaseCc: pt.sec[3] = e.value; break;
        case TraceName::kPhaseQueue: pt.sec[4] = e.value; break;
        default: break;
      }
    } else if (e.kind == TraceKind::Instant &&
               e.name == TraceName::kRestart) {
      ++phases[e.id].restarts;
    }
  }

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.kv("schema", "gemsd.trace.v1");
  for (const auto& [k, raw] : metadata) {
    w.key(k);
    w.raw(raw);
  }
  w.key("stats_start_s");
  w.value(tel.stats_start);
  w.key("end_s");
  w.value(tel.end);
  w.key("events_dropped");
  w.value(tel.events_dropped);
  w.end_object();

  w.key("traceEvents");
  w.begin_array();

  // Process/thread naming: pid 0 is the cluster (counter tracks), pid n+1 is
  // node n; lane 0 of each node holds background work.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", "process_name");
  w.key("pid");
  w.value(std::int64_t{0});
  w.key("args");
  w.begin_object();
  w.kv("name", "cluster");
  w.end_object();
  w.end_object();
  for (int n : nodes) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "process_name");
    w.key("pid");
    w.value(static_cast<std::int64_t>(n) + 1);
    w.key("args");
    w.begin_object();
    w.kv("name", "node" + std::to_string(n));
    w.end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "thread_name");
    w.key("pid");
    w.value(static_cast<std::int64_t>(n) + 1);
    w.key("tid");
    w.value(std::int64_t{0});
    w.key("args");
    w.begin_object();
    w.kv("name", "background");
    w.end_object();
    w.end_object();
  }

  for (const TraceEvent& e : tel.events) {
    const double pid = e.node >= 0 ? static_cast<double>(e.node) + 1.0 : 0.0;
    switch (e.kind) {
      case TraceKind::PhaseTotal:
        break;  // folded into the txn span args
      case TraceKind::Span: {
        w.begin_object();
        w.kv("name", to_string(e.name));
        w.kv("cat", category(e.name));
        emit_common(w, "X", e, pid);
        w.key("dur");
        w.value(e.dur * 1e6);
        w.key("args");
        w.begin_object();
        if (e.id != 0) {
          w.key("id");
          w.value(e.id);
        }
        if (e.name == TraceName::kTxn) {
          auto it = phases.find(e.id);
          const PhaseTotals pt =
              it != phases.end() ? it->second : PhaseTotals{};
          w.key("cpu_ms");
          w.value(pt.sec[0] * 1e3);
          w.key("cpu_wait_ms");
          w.value(pt.sec[1] * 1e3);
          w.key("io_ms");
          w.value(pt.sec[2] * 1e3);
          w.key("cc_ms");
          w.value(pt.sec[3] * 1e3);
          w.key("mpl_wait_ms");
          w.value(pt.sec[4] * 1e3);
          w.key("restarts");
          w.value(static_cast<std::int64_t>(pt.restarts));
          w.key("type");
          w.value(e.value);
        } else if (page_scoped(e.name)) {
          w.key("v");
          w.value(e.value);
          w.key("p");
          w.value(static_cast<std::int64_t>(e.aux));
        } else if (e.value != 0.0) {
          w.key("v");
          w.value(e.value);
        }
        w.end_object();
        w.end_object();
        break;
      }
      case TraceKind::Instant: {
        w.begin_object();
        w.kv("name", to_string(e.name));
        w.kv("cat", category(e.name));
        emit_common(w, "i", e, pid);
        // Payload args so instants round-trip through the analyzer's trace
        // parser (wait.edge carries the blocked-on txn in v, deadlock the
        // victim's contended page in v/p).
        if (e.id != 0 || e.value != 0.0 || page_scoped(e.name)) {
          w.key("args");
          w.begin_object();
          if (e.id != 0) {
            w.key("id");
            w.value(e.id);
          }
          if (e.value != 0.0 || page_scoped(e.name)) {
            w.key("v");
            w.value(e.value);
          }
          if (page_scoped(e.name)) {
            w.key("p");
            w.value(static_cast<std::int64_t>(e.aux));
          }
          w.end_object();
        }
        w.kv("s", "t");
        w.end_object();
        break;
      }
      case TraceKind::FlowBegin:
      case TraceKind::FlowEnd: {
        w.begin_object();
        w.kv("name", "msg");
        w.kv("cat", "net");
        emit_common(w, e.kind == TraceKind::FlowBegin ? "s" : "f", e, pid);
        if (e.kind == TraceKind::FlowEnd) w.kv("bp", "e");
        w.key("id");
        w.value(e.id);
        // Long-message flag (only when set, so short-message flows keep their
        // golden byte shape); lets the importer round-trip flows losslessly.
        if (e.value != 0.0) {
          w.key("v");
          w.value(e.value);
        }
        w.end_object();
        break;
      }
    }
  }

  if (tel.timeseries) write_counter_tracks(w, *tel.timeseries);

  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace gemsd::obs

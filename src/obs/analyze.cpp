#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

namespace gemsd::obs {

namespace {

void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double num_or(const JsonValue* v, double fallback) {
  return v && v->is_number() ? v->num : fallback;
}

}  // namespace

// ------------------------------------------------------------ trace parsing

namespace {

/// Reverse of to_string() for names that appear as spans or instants.
bool name_from_string(const std::string& s, TraceName& out) {
  for (int i = 0; i < static_cast<int>(TraceName::kCount); ++i) {
    const auto n = static_cast<TraceName>(i);
    if (s == to_string(n)) {
      out = n;
      return true;
    }
  }
  return false;
}

}  // namespace

bool parse_chrome_trace(const JsonValue& doc, std::vector<TraceEvent>& out,
                        std::uint64_t& dropped, std::string& error) {
  out.clear();
  dropped = 0;
  if (!doc.is_object()) {
    error = "trace document is not a JSON object";
    return false;
  }
  const JsonValue* other = doc.find("otherData");
  const JsonValue* schema = other ? other->find("schema") : nullptr;
  if (!schema || !schema->is_string() || schema->str != "gemsd.trace.v1") {
    error = "not a gemsd.trace.v1 document (otherData.schema missing)";
    return false;
  }
  dropped = static_cast<std::uint64_t>(
      num_or(other->find("events_dropped"), 0.0));
  const JsonValue* evs = doc.find("traceEvents");
  if (!evs || !evs->is_array()) {
    error = "traceEvents array missing";
    return false;
  }

  for (const JsonValue& je : evs->arr) {
    if (!je.is_object()) continue;
    const JsonValue* ph = je.find("ph");
    const JsonValue* name = je.find("name");
    if (!ph || !ph->is_string() || !name || !name->is_string()) continue;
    if (ph->str == "s" || ph->str == "f") {
      // Message flow: begin/end pairs stitched by the top-level id; the
      // optional top-level "v" is the long-message flag.
      TraceEvent e;
      e.kind = ph->str == "s" ? TraceKind::FlowBegin : TraceKind::FlowEnd;
      e.name = e.kind == TraceKind::FlowBegin ? TraceName::kMsgSend
                                              : TraceName::kMsgRecv;
      e.node = static_cast<std::int16_t>(num_or(je.find("pid"), 0.0) - 1.0);
      e.t = num_or(je.find("ts"), 0.0) * 1e-6;
      e.id = static_cast<std::uint64_t>(num_or(je.find("id"), 0.0));
      e.value = num_or(je.find("v"), 0.0);
      out.push_back(e);
      continue;
    }
    // Metadata records ("M") and the counter tracks ("C", drawn from the
    // time series) are presentation-only and stay behind.
    if (ph->str != "X" && ph->str != "i") continue;
    TraceName tn;
    if (!name_from_string(name->str, tn)) continue;

    TraceEvent e;
    e.name = tn;
    e.node = static_cast<std::int16_t>(num_or(je.find("pid"), 0.0) - 1.0);
    e.t = num_or(je.find("ts"), 0.0) * 1e-6;
    const JsonValue* args = je.find("args");
    e.id = static_cast<std::uint64_t>(
        args ? num_or(args->find("id"), 0.0) : 0.0);
    if (args) {
      e.value = num_or(args->find("v"), 0.0);
      e.aux = static_cast<std::int32_t>(num_or(args->find("p"), 0.0));
    }

    if (ph->str == "X") {
      e.kind = TraceKind::Span;
      e.dur = num_or(je.find("dur"), 0.0) * 1e-6;
      if (tn == TraceName::kTxn && args) {
        e.value = num_or(args->find("type"), 0.0);
        out.push_back(e);
        // Re-expand the folded phase totals (recorded at commit = span end).
        const sim::SimTime tc = e.t + e.dur;
        const std::pair<TraceName, const char*> phases[] = {
            {TraceName::kPhaseCpu, "cpu_ms"},
            {TraceName::kPhaseCpuWait, "cpu_wait_ms"},
            {TraceName::kPhaseIo, "io_ms"},
            {TraceName::kPhaseCc, "cc_ms"},
            {TraceName::kPhaseQueue, "mpl_wait_ms"},
        };
        for (const auto& [pn, key] : phases) {
          TraceEvent p;
          p.name = pn;
          p.kind = TraceKind::PhaseTotal;
          p.node = e.node;
          p.id = e.id;
          p.t = tc;
          p.value = num_or(args->find(key), 0.0) * 1e-3;
          out.push_back(p);
        }
        continue;
      }
    } else {
      e.kind = TraceKind::Instant;
    }
    out.push_back(e);
  }
  return true;
}

// ------------------------------------------------------------ reconciliation

Reconciliation reconcile(const CritPathAnalysis& a, const JsonValue& metrics,
                         double tolerance) {
  Reconciliation r;
  const JsonValue* brk = metrics.find("breakdown_ms");
  const double commits = num_or(metrics.find("commits"), 0.0);
  const double txns = a.txns > 0 ? static_cast<double>(a.txns) : commits;
  const double per_txn_ms = txns > 0 ? 1e3 / txns : 0.0;

  const PhaseSums& p = a.phases;
  const std::pair<const char*, double> buckets[] = {
      {"cpu", p.cpu_s}, {"cpu_wait", p.cpu_wait_s}, {"io", p.io_s},
      {"cc", p.cc_s},   {"queue", p.queue_s},
  };
  r.ok = true;
  for (const auto& [key, sum_s] : buckets) {
    ReconcileLine line;
    line.phase = key;
    line.trace_ms = sum_s * per_txn_ms;
    line.reported_ms = brk ? num_or(brk->find(key), 0.0) : 0.0;
    line.rel_err = std::abs(line.trace_ms - line.reported_ms) /
                   std::max(std::abs(line.reported_ms), 1e-9);
    // Phases that are essentially zero on both sides always reconcile (the
    // relative error on a 1e-12 ms bucket is meaningless).
    if (line.trace_ms < 1e-6 && line.reported_ms < 1e-6) line.rel_err = 0.0;
    r.worst_rel_err = std::max(r.worst_rel_err, line.rel_err);
    if (line.rel_err > tolerance) r.ok = false;
    r.lines.push_back(line);
  }
  return r;
}

// ----------------------------------------------------------- run comparison

namespace {

struct RunRef {
  std::string key;
  const JsonValue* metrics = nullptr;
};

/// Identity of one sweep point inside a results document: config hash plus
/// label plus the bench-assigned run name (kernel micro-benches share one
/// config but differ by name).
std::vector<RunRef> index_runs(const JsonValue& doc, std::string& error) {
  std::vector<RunRef> refs;
  const JsonValue* schema = doc.find("schema");
  if (!schema || !schema->is_string() || schema->str != "gemsd.results.v1") {
    error = "not a gemsd.results.v1 document";
    return refs;
  }
  const JsonValue* runs = doc.find("runs");
  if (!runs || !runs->is_array()) {
    error = "runs array missing";
    return refs;
  }
  std::map<std::string, int> seen;
  for (const JsonValue& run : runs->arr) {
    RunRef ref;
    const JsonValue* hash = run.find("config_hash");
    const JsonValue* name = run.find("name");
    ref.metrics = run.find("metrics");
    const JsonValue* label = ref.metrics ? ref.metrics->find("label") : nullptr;
    ref.key = (hash && hash->is_string() ? hash->str : "?");
    ref.key += "|";
    ref.key += label && label->is_string() ? label->str : "?";
    if (name && name->is_string() && !name->str.empty()) {
      ref.key += "|" + name->str;
    }
    // Disambiguate genuinely identical sweep points by occurrence index.
    const int n = seen[ref.key]++;
    if (n > 0) ref.key += "#" + std::to_string(n);
    refs.push_back(ref);
  }
  return refs;
}

}  // namespace

CompareReport compare_results(const JsonValue& baseline,
                              const JsonValue& candidate, double tolerance) {
  CompareReport rep;
  std::string err_a, err_b;
  const std::vector<RunRef> base = index_runs(baseline, err_a);
  const std::vector<RunRef> cand = index_runs(candidate, err_b);
  if (!err_a.empty() || !err_b.empty()) {
    rep.error = !err_a.empty() ? "baseline: " + err_a : "candidate: " + err_b;
    return rep;
  }

  std::map<std::string, const JsonValue*> cand_by_key;
  for (const RunRef& c : cand) cand_by_key[c.key] = c.metrics;
  std::set<std::string> matched;

  for (const RunRef& b : base) {
    auto it = cand_by_key.find(b.key);
    if (it == cand_by_key.end() || !b.metrics || !it->second) {
      rep.unmatched_base.push_back(b.key);
      continue;
    }
    matched.insert(b.key);
    const JsonValue& mb = *b.metrics;
    const JsonValue& mc = *it->second;

    RunDelta d;
    d.key = b.key;
    d.base_resp_ms = num_or(mb.find("resp_ms"), 0.0);
    d.cand_resp_ms = num_or(mc.find("resp_ms"), 0.0);
    d.base_ci_ms = num_or(mb.find("resp_ci_ms"), 0.0);
    d.cand_ci_ms = num_or(mc.find("resp_ci_ms"), 0.0);
    d.base_tput = num_or(mb.find("throughput"), 0.0);
    d.cand_tput = num_or(mc.find("throughput"), 0.0);

    // Response: significant iff the delta clears BOTH the statistical band
    // (sum of the 95% CI half-widths; 0 for single-batch runs) and the
    // relative tolerance band.
    const double resp_delta = d.cand_resp_ms - d.base_resp_ms;
    const double resp_band =
        std::max(d.base_ci_ms + d.cand_ci_ms, tolerance * d.base_resp_ms);
    d.resp_regressed = resp_delta > resp_band && resp_band > 0.0;
    d.resp_improved = -resp_delta > resp_band && resp_band > 0.0;

    // Throughput carries no CI in the schema: relative band only.
    const double tput_band = tolerance * d.base_tput;
    d.tput_regressed = d.base_tput - d.cand_tput > tput_band && tput_band > 0.0;
    d.tput_improved = d.cand_tput - d.base_tput > tput_band && tput_band > 0.0;

    // Per-shard gating (additive "gem_shards" block): only when both
    // documents carry it with the same shard count — older baselines stay
    // comparable. A shard whose utilization or mean queue length grew beyond
    // the relative band regresses the pair even when the aggregate gem_util
    // averages out across shards.
    const JsonValue* sb = mb.find("gem_shards");
    const JsonValue* sc = mc.find("gem_shards");
    if (sb && sc && sb->is_array() && sc->is_array() &&
        sb->arr.size() == sc->arr.size()) {
      for (std::size_t i = 0; i < sb->arr.size(); ++i) {
        const double ub = num_or(sb->arr[i].find("util"), 0.0);
        const double uc = num_or(sc->arr[i].find("util"), 0.0);
        const double qb = num_or(sb->arr[i].find("queue_mean"), 0.0);
        const double qc = num_or(sc->arr[i].find("queue_mean"), 0.0);
        if ((uc - ub > tolerance * ub && ub > 0.0) ||
            (qc - qb > tolerance * qb && qb > 0.0)) {
          ++d.shard_regressions;
        }
      }
    }

    if (d.resp_regressed || d.tput_regressed || d.shard_regressions > 0) {
      ++rep.regressions;
    }
    if ((d.resp_improved || d.tput_improved) && !d.resp_regressed &&
        !d.tput_regressed && d.shard_regressions == 0) {
      ++rep.improvements;
    }
    rep.deltas.push_back(d);
  }
  for (const RunRef& c : cand) {
    if (!matched.count(c.key)) rep.unmatched_cand.push_back(c.key);
  }
  // A gate that compared nothing has not passed: every run key (config
  // hash, label, name) changed, or a document holds no runs.
  if (rep.deltas.empty()) {
    rep.error = "no baseline run matches a candidate run (" +
                std::to_string(base.size()) + " baseline, " +
                std::to_string(cand.size()) +
                " candidate runs); nothing was compared";
  }
  return rep;
}

// -------------------------------------------------------------- formatting

std::string format_reconciliation(const Reconciliation& r) {
  std::string s;
  append(s, "reconciliation (trace phase sums vs reported breakdown_ms):\n");
  for (const ReconcileLine& l : r.lines) {
    append(s, "  %-9s trace %10.4f ms  reported %10.4f ms  rel err %6.3f%%\n",
           l.phase.c_str(), l.trace_ms, l.reported_ms, l.rel_err * 1e2);
  }
  append(s, "  worst relative error %.3f%% -> %s\n", r.worst_rel_err * 1e2,
         r.ok ? "OK" : "MISMATCH");
  return s;
}

std::string format_compare(const CompareReport& r, double tolerance) {
  std::string s;
  append(s, "compare: tolerance %.1f%% + batch-means CIs\n", tolerance * 1e2);
  for (const RunDelta& d : r.deltas) {
    const char* flag = "";
    if (d.resp_regressed || d.tput_regressed || d.shard_regressions > 0) {
      flag = "  ** REGRESSION";
    } else if (d.resp_improved || d.tput_improved) {
      flag = "  improved";
    }
    const double resp_pct =
        d.base_resp_ms > 0.0
            ? (d.cand_resp_ms - d.base_resp_ms) / d.base_resp_ms * 1e2
            : 0.0;
    const double tput_pct =
        d.base_tput > 0.0 ? (d.cand_tput - d.base_tput) / d.base_tput * 1e2
                          : 0.0;
    append(s,
           "  %s: resp %.2f -> %.2f ms (%+.1f%%, ci ±%.2f/±%.2f), tput %.1f "
           "-> %.1f /s (%+.1f%%)%s\n",
           d.key.c_str(), d.base_resp_ms, d.cand_resp_ms, resp_pct,
           d.base_ci_ms, d.cand_ci_ms, d.base_tput, d.cand_tput, tput_pct,
           flag);
    if (d.shard_regressions > 0) {
      append(s, "    %d GEM shard(s) over the band (util or queue_mean)\n",
             d.shard_regressions);
    }
  }
  for (const std::string& k : r.unmatched_base) {
    append(s, "  only in baseline: %s\n", k.c_str());
  }
  for (const std::string& k : r.unmatched_cand) {
    append(s, "  only in candidate: %s\n", k.c_str());
  }
  append(s, "%d regressions, %d improvements, %zu+%zu unmatched\n",
         r.regressions, r.improvements, r.unmatched_base.size(),
         r.unmatched_cand.size());
  return s;
}

}  // namespace gemsd::obs

// gemsd_analyze — interpret the observability layer's outputs:
//
//   gemsd_analyze <trace.json> [--results=FILE] [--run=I] [--top=K]
//                 [--tolerance=T]
//       Contention attribution from a "gemsd.trace.v1" Chrome trace: per-node
//       phase buckets, hottest pages, lock-conflict pairs, and a wait-for
//       graph replay with cycle detection. With --results, the attribution is
//       cross-checked against run I of a "gemsd.results.v1" document (phase
//       buckets must reconcile with breakdown_ms within the tolerance, the
//       replayed cycle count with the deadlock counter); a mismatch on a
//       complete trace (no ring drops) exits 1.
//
//   gemsd_analyze <trace.json> --critical-path[=FILE] [--top=K]
//       Critical-path profile instead of the attribution report: every second
//       of each committed transaction's response time classified (lock waits
//       resolved to the holder's concurrent activity, message gaps, restart
//       backoff) plus tail cohorts from the response-time percentiles. With
//       =FILE the "gemsd.critpath.v1" document is also written (validate with
//       gemsd_validate schemas/critpath.schema.json). On a complete trace
//       (no ring drops) fewer than 99% of transactions reconciling within 1%
//       of their traced response exits 1.
//
//   gemsd_analyze --compare <baseline.json> <candidate.json> [--tolerance=T]
//       Diff two results documents run by run (matched on config hash +
//       label + name). A throughput or response-time regression beyond the
//       batch-means CIs and the relative tolerance band exits 1 — the CI
//       bench-regression gate.
//
//   gemsd_analyze --timeseries <timeseries.json> [--csv=FILE]
//       Steady-state report from a "gemsd.timeseries.v1" document (written
//       by --timeseries on any bench or gemsd_run): MSER-5 warm-up estimate
//       checked against the configured --warmup cut (a too-short cut warns),
//       and a batch-means trend test over the measurement interval for
//       throughput and mean response. A drifting run exits 1 — the CI
//       steady-state gate. --csv=FILE also writes one row per window for
//       plotting.
//
//   gemsd_analyze --memory-budget=BYTES <results.json>
//       Memory gate over a "gemsd.results.v1" document's memory block
//       (written by every bench): peak_rss_bytes above the budget exits 1 —
//       the CI scale-out footprint gate. A document without a usable memory
//       reading (pre-memory results, non-Linux writer) exits 2.
//
//   gemsd_analyze --bottleneck[=FILE] [<resources.json>]
//       Capacity analysis from a "gemsd.resources.v1" document (written by
//       --resources on any bench, gemsd_run or gemsd_scenario): stations
//       ranked by utilization and service demand, the cluster bottleneck,
//       each station's saturation arrival rate, the asymptotic throughput
//       bound X_max = min_i capacity_i/demand_i, what-if projections at
//       1.5x/2x the measured arrival rate, and M/M/1 bottleneck-split
//       projections (e.g. GLT sharding). The operational laws are reconciled
//       first; a violation, or measured throughput above X_max (impossible
//       on a document the simulator wrote), exits 1 — the CI capacity gate.
//
// Exit codes: 0 clean, 1 regression / failed cross-check, 2 bad input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/analyze.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/resources.hpp"
#include "obs/timeseries.hpp"

namespace {

bool load_json(const std::string& path, gemsd::obs::JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  if (!gemsd::obs::json_parse(ss.str(), out, error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gemsd_analyze <trace.json> [--results=FILE] [--run=I]\n"
      "                     [--top=K] [--tolerance=T]\n"
      "       gemsd_analyze <trace.json> --critical-path[=FILE] [--top=K]\n"
      "       gemsd_analyze --compare <baseline.json> <candidate.json>\n"
      "                     [--tolerance=T]\n"
      "       gemsd_analyze --bottleneck[=FILE] [<resources.json>]\n"
      "       gemsd_analyze --timeseries <timeseries.json> [--csv=FILE]\n"
      "       gemsd_analyze --memory-budget=BYTES <results.json>\n");
  return 2;
}

int run_compare(const std::string& base_path, const std::string& cand_path,
                double tolerance) {
  gemsd::obs::JsonValue base, cand;
  if (!load_json(base_path, base) || !load_json(cand_path, cand)) return 2;
  const gemsd::obs::CompareReport rep =
      gemsd::obs::compare_results(base, cand, tolerance);
  if (!rep.error.empty()) {
    std::fprintf(stderr, "error: %s\n", rep.error.c_str());
    return 2;
  }
  std::printf("baseline:  %s\ncandidate: %s\n", base_path.c_str(),
              cand_path.c_str());
  std::fputs(gemsd::obs::format_compare(rep, tolerance).c_str(), stdout);
  return rep.regressions > 0 ? 1 : 0;
}

int run_memory_budget(const std::string& results_path, double budget_bytes) {
  gemsd::obs::JsonValue doc;
  if (!load_json(results_path, doc)) return 2;
  const gemsd::obs::JsonValue* mem = doc.find("memory");
  const gemsd::obs::JsonValue* peak =
      mem ? mem->find("peak_rss_bytes") : nullptr;
  if (!peak || !peak->is_number() || peak->num <= 0.0) {
    std::fprintf(stderr,
                 "error: %s has no usable memory.peak_rss_bytes (results "
                 "written before the memory block, or on a platform without "
                 "RSS reporting)\n",
                 results_path.c_str());
    return 2;
  }
  const double used = peak->num;
  std::printf("memory budget: peak RSS %.1f MiB of %.1f MiB budget (%.1f%%)\n",
              used / (1024.0 * 1024.0), budget_bytes / (1024.0 * 1024.0),
              100.0 * used / budget_bytes);
  if (used > budget_bytes) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %.0f bytes exceeds the budget of %.0f "
                 "bytes\n",
                 used, budget_bytes);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gemsd;

  std::string trace_path, results_path;
  std::string compare_base, compare_cand;
  bool compare = false;
  bool critpath = false;
  bool timeseries = false;
  bool bottleneck = false;
  double memory_budget = 0.0;  // > 0: --memory-budget mode
  std::string critpath_file;
  std::string csv_file;
  int run_index = 0;
  int top_k = 10;
  double tolerance = -1.0;  // mode-specific default

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--compare") == 0) {
      compare = true;
    } else if (std::strcmp(a, "--timeseries") == 0) {
      timeseries = true;
    } else if (std::strcmp(a, "--bottleneck") == 0) {
      bottleneck = true;
    } else if (std::strncmp(a, "--bottleneck=", 13) == 0) {
      bottleneck = true;
      trace_path = a + 13;
    } else if (std::strncmp(a, "--memory-budget=", 16) == 0) {
      memory_budget = std::atof(a + 16);
      if (memory_budget <= 0.0) {
        std::fprintf(stderr, "error: bad --memory-budget value\n");
        return usage();
      }
    } else if (std::strncmp(a, "--csv=", 6) == 0) {
      csv_file = a + 6;
    } else if (std::strcmp(a, "--critical-path") == 0) {
      critpath = true;
    } else if (std::strncmp(a, "--critical-path=", 16) == 0) {
      critpath = true;
      critpath_file = a + 16;
    } else if (std::strncmp(a, "--results=", 10) == 0) {
      results_path = a + 10;
    } else if (std::strncmp(a, "--run=", 6) == 0) {
      run_index = std::atoi(a + 6);
    } else if (std::strncmp(a, "--top=", 6) == 0) {
      top_k = std::atoi(a + 6);
    } else if (std::strncmp(a, "--tolerance=", 12) == 0) {
      tolerance = std::atof(a + 12);
    } else if (a[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", a);
      return usage();
    } else if (compare && compare_base.empty()) {
      compare_base = a;
    } else if (compare && compare_cand.empty()) {
      compare_cand = a;
    } else if (!compare && trace_path.empty()) {
      trace_path = a;
    } else {
      return usage();
    }
  }

  if (compare) {
    if (compare_base.empty() || compare_cand.empty()) return usage();
    return run_compare(compare_base, compare_cand,
                       tolerance < 0.0 ? 0.05 : tolerance);
  }
  if (trace_path.empty()) return usage();
  if (memory_budget > 0.0) return run_memory_budget(trace_path, memory_budget);
  if (tolerance < 0.0) tolerance = 0.01;

  if (bottleneck) {
    obs::JsonValue doc;
    if (!load_json(trace_path, doc)) return 2;
    obs::ResourceSet s;
    std::string error;
    if (!obs::resources_from_json(doc, s, error)) {
      std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 2;
    }
    const std::vector<obs::LawViolation> laws = obs::check_resource_laws(s);
    const obs::BottleneckReport rep = obs::analyze_bottleneck(s);
    std::fputs(obs::format_bottleneck_report(s, rep, laws).c_str(), stdout);
    // Operational laws hold as identities on every document the simulator
    // writes, and measured throughput cannot exceed the asymptotic bound
    // X·D_i = U_i·c_i ≤ c_i. A violation means the document is corrupt (or
    // hand-edited) — fail the gate.
    if (!laws.empty()) {
      std::fprintf(stderr,
                   "error: %zu operational-law violation(s); first: %s: %s\n",
                   laws.size(), laws.front().resource.c_str(),
                   laws.front().what.c_str());
      return 1;
    }
    if (!rep.within_bound) {
      std::fprintf(stderr,
                   "error: measured throughput %.6g exceeds the asymptotic "
                   "bound %.6g — corrupt document\n",
                   rep.measured_x, rep.x_max);
      return 1;
    }
    return 0;
  }

  if (timeseries) {
    obs::JsonValue doc;
    if (!load_json(trace_path, doc)) return 2;
    obs::TsSeries s;
    std::string error;
    if (!obs::timeseries_from_json(doc, s, error)) {
      std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 2;
    }
    const obs::TsReport rep = obs::analyze_timeseries(s);
    std::fputs(obs::format_ts_report(s, rep).c_str(), stdout);
    if (!csv_file.empty()) {
      std::ofstream out(csv_file, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", csv_file.c_str());
        return 2;
      }
      out << obs::timeseries_csv(s);
      std::printf("wrote %s\n", csv_file.c_str());
    }
    // A too-short warm-up cut is a warning (the headline numbers are
    // biased, not wrong); a drifting measurement interval fails the run —
    // steady-state metrics from a non-stationary run are meaningless.
    if (!rep.warmup_safe) {
      std::fprintf(stderr,
                   "warning: configured warm-up %.4g s is shorter than the "
                   "MSER-5 recommendation %.4g s\n",
                   rep.configured_warmup_s, rep.mser_warmup_s);
    }
    return rep.drifting ? 1 : 0;
  }


  obs::JsonValue doc;
  if (!load_json(trace_path, doc)) return 2;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  std::string error;
  if (!obs::parse_chrome_trace(doc, events, dropped, error)) {
    std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(), error.c_str());
    return 2;
  }

  if (critpath) {
    const obs::CritPathAnalysis cp = obs::critical_path(events, dropped);
    std::fputs(obs::format_critical_path(cp, top_k).c_str(), stdout);
    if (!critpath_file.empty()) {
      std::ofstream out(critpath_file, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     critpath_file.c_str());
        return 2;
      }
      out << obs::critical_path_json(cp) << "\n";
      std::printf("wrote %s\n", critpath_file.c_str());
    }
    // On a complete trace the per-class seconds must reconcile with the
    // traced response for (essentially) every transaction; with ring drops
    // the profile is advisory only.
    if (dropped == 0 && cp.txns > 0 &&
        static_cast<double>(cp.txns_within_tol) <
            0.99 * static_cast<double>(cp.txns)) {
      std::fprintf(stderr,
                   "error: only %llu/%llu txns reconcile within 1%%\n",
                   static_cast<unsigned long long>(cp.txns_within_tol),
                   static_cast<unsigned long long>(cp.txns));
      return 1;
    }
    return 0;
  }

  const obs::TraceAnalysis analysis = obs::analyze_trace(events, dropped);
  std::fputs(obs::format_analysis(analysis, top_k).c_str(), stdout);

  int rc = 0;
  if (!results_path.empty()) {
    obs::JsonValue results;
    if (!load_json(results_path, results)) return 2;
    const obs::JsonValue* runs = results.find("runs");
    if (!runs || !runs->is_array() || runs->arr.empty()) {
      std::fprintf(stderr, "error: %s: no runs\n", results_path.c_str());
      return 2;
    }
    const auto idx = static_cast<std::size_t>(run_index < 0 ? 0 : run_index) %
                     runs->arr.size();
    const obs::JsonValue* metrics = runs->arr[idx].find("metrics");
    if (!metrics) {
      std::fprintf(stderr, "error: %s: run %zu has no metrics\n",
                   results_path.c_str(), idx);
      return 2;
    }

    const obs::Reconciliation rec =
        obs::reconcile(analysis, *metrics, tolerance);
    std::fputs(obs::format_reconciliation(rec).c_str(), stdout);

    const auto deadlocks = static_cast<std::uint64_t>(
        metrics->find("deadlocks") && metrics->find("deadlocks")->is_number()
            ? metrics->find("deadlocks")->num
            : 0.0);
    std::printf("deadlock cross-check: %llu cycles replayed vs %llu counted "
                "by the simulator\n",
                static_cast<unsigned long long>(analysis.cycles),
                static_cast<unsigned long long>(deadlocks));
    if (dropped > 0) {
      std::printf("note: %llu events dropped from the ring; cross-checks are "
                  "advisory only\n",
                  static_cast<unsigned long long>(dropped));
    } else {
      if (!rec.ok) rc = 1;
      if (analysis.cycles != deadlocks) rc = 1;
    }
  }
  return rc;
}

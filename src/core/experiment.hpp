#pragma once

#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "workload/trace.hpp"

namespace gemsd {

/// Build a trace-driven workload (replay in original order) with the given
/// routing policy: random = round robin; affinity = routing table computed by
/// the allocation heuristic [Ra92b]. The GLA assignment is coordinated with
/// the affinity routing either way (the paper's PCL setup).
System::Workload make_trace_workload(const SystemConfig& cfg,
                                     const workload::Trace& trace);

/// SystemConfig preset for trace-driven runs (Section 4.6): partitions match
/// the trace's files, 50 TPS per node, buffer 1000 pages, NOFORCE.
SystemConfig make_trace_config(const workload::Trace& trace);

RunResult run_trace(const SystemConfig& cfg, const workload::Trace& trace);

/// Shared command-line handling for the bench harnesses and gemsd_bench:
///   --quick            shorter measurement interval (CI-friendly)
///   --measure=S        measurement seconds
///   --warmup=S         warm-up seconds
///   --max-nodes=N      cap the node sweep
///   --jobs=N           run the sweep's simulations on N worker threads
///                      (default: hardware_concurrency; 1 = serial)
///   --full             verbose per-run diagnostics
///   --csv              machine-readable output
///   --sample=S         periodic telemetry sample interval [sim s] (0 = off)
///   --slow-k=K         record the K slowest transactions per run
///   --metrics-json=F   structured results file (default results/BENCH_<name>.json)
///   --no-json          skip the structured results file
///   --trace=F          Chrome trace-event JSON of one sweep point
///   --trace-run=I      which sweep point gets traced (default 0)
///   --trace-capacity=N trace ring-buffer capacity [events]
///   --trace-filter=RE  record only events whose name matches the regex
///                      (filtered events never enter the ring, so they don't
///                      count as dropped)
///   --audit            online invariant auditors (fail fast on violation)
///   --progress[=SECS]  stderr JSONL heartbeat every SECS wall seconds
///   --timeseries[=F]   per-window time series of the --trace-run sweep
///                      point (gemsd.timeseries.v1 JSON; analyze with
///                      gemsd_analyze --timeseries)
///   --timeseries-window=S  window width [sim s] (default 0.5; width doubles
///                      when the 512-window cap is hit)
///   --resources[=F]    per-resource operational snapshot of the --trace-run
///                      sweep point (gemsd.resources.v1 JSON; analyze with
///                      gemsd_analyze --bottleneck)
struct BenchOptions {
  /// Warm-up default: 5 s simulated, the SystemConfig::warmup default.
  /// --quick overrides to 2 s (measure 6 s); later flags win, so
  /// `--quick --warmup=5` restores the default.
  double warmup = 5.0;
  double measure = 20.0;
  int max_nodes = 10;
  int jobs = 0;  ///< 0 = hardware_concurrency (see SweepRunner)
  bool full = false;
  bool csv = false;
  std::uint64_t seed = 42;
  double sample_every = 1.0;
  int slow_k = 10;
  std::string metrics_json;
  bool no_json = false;
  std::string trace_file;
  int trace_run = 0;
  std::size_t trace_capacity = std::size_t{1} << 18;
  std::string trace_filter;  ///< regex on event names ("" = everything)
  bool audit = false;
  double progress_every_s = 0.0;     ///< heartbeat period [wall s] (0 = off)
  /// Per-window time series (obs/timeseries.hpp) of the --trace-run sweep
  /// point. Pure observation — metrics are byte-identical on/off.
  bool timeseries = false;
  std::string timeseries_file;       ///< "" = results/TIMESERIES_<bench>.json
  double timeseries_window = 0.5;    ///< window width [sim s]
  /// Per-resource operational snapshot (obs/resources.hpp) of the --trace-run
  /// sweep point. Pure observation — metrics are byte-identical on/off.
  bool resources = false;
  std::string resources_file;        ///< "" = results/RESOURCES_<bench>.json
};

/// "--flag=value": true iff `a` starts with `flag` followed by '=', and then
/// `out` holds the value.
bool value_of(const std::string& a, const char* flag, std::string& out);

/// Strict numeric flag values: true iff all of `v` parses (no trailing
/// characters, not empty); `out` is unspecified on failure. to_int also
/// rejects fractional and out-of-range values, to_u64 negative ones. Every
/// command-line front end uses these.
bool to_double(const std::string& v, double& out);
bool to_int(const std::string& v, int& out);
bool to_u64(const std::string& v, std::uint64_t& out);

/// Parse the shared flags into `o`. Returns "" on success, or an error
/// message for an unknown flag or a malformed value ("--warmup 5" space
/// form included — every value flag takes `=`). `o` is left with whatever
/// was parsed up to the offending argument.
std::string try_parse_bench_args(const std::vector<std::string>& args,
                                 BenchOptions& o);

/// One usage block listing every shared flag (callers prepend their own).
std::string bench_usage();

/// Strict wrapper: on any unknown flag or malformed value prints the error
/// plus usage to stderr and exits with status 2 — a typo must never run a
/// full sweep with default settings.
BenchOptions parse_bench_args(int argc, char** argv);

/// Names of the debit-credit partitions (report columns).
std::vector<std::string> debit_credit_partition_names();

/// Stamp the result-neutral options on every config of a sweep: sampler and
/// slow-transaction log on all points;
/// the trace ring only on the --trace-run point (and only when --trace was
/// given).
void apply_obs_options(std::vector<SystemConfig>& cfgs,
                       const BenchOptions& opt);

/// One sweep point as exported to the structured results file: the exact
/// config it ran, its results (with telemetry), and optional bench-specific
/// extra values that have no RunResult field.
struct BenchRun {
  SystemConfig config;
  RunResult result;
  /// Distinguishes runs that share one config (e.g. the kernel
  /// micro-benchmarks); "" for ordinary sweep points.
  std::string name;
  std::vector<std::pair<std::string, double>> extra;
};

/// Zip a sweep's configs and results (same order) into BenchRuns.
std::vector<BenchRun> zip_runs(const std::vector<SystemConfig>& cfgs,
                               const std::vector<RunResult>& results);

/// Write the machine-readable results document ("gemsd.results.v1",
/// validated by schemas/results.schema.json): caption, git describe, bench
/// options, and per run the full config (with fingerprint hash), headline
/// metrics, detail metrics, sampler time series and slowest transactions.
/// Returns the path written, or "" when opt.no_json is set.
std::string write_bench_json(const std::string& bench,
                             const std::string& caption,
                             const BenchOptions& opt,
                             const std::vector<BenchRun>& runs,
                             const std::vector<std::string>& partition_names);

/// Write the Chrome trace of the traced sweep point when --trace was given.
/// Returns the path written, or "" when tracing was off.
std::string write_trace_file(const BenchOptions& opt,
                             const std::vector<BenchRun>& runs);

/// Write the time series of the recorded sweep point when --timeseries was
/// given: the gemsd.timeseries.v1 document. Returns the path written, or ""
/// when off or nothing was recorded.
std::string write_timeseries_file(const std::string& bench,
                                  const BenchOptions& opt,
                                  const std::vector<BenchRun>& runs);

/// Write the resource snapshot of the recorded sweep point when --resources
/// was given: the gemsd.resources.v1 document. Returns the path written, or
/// "" when off or nothing was recorded.
std::string write_resources_file(const std::string& bench,
                                 const BenchOptions& opt,
                                 const std::vector<BenchRun>& runs);

/// One-line config fingerprint for human-readable report headers:
/// "bench git=<describe> seed=<seed> config=<hash>".
std::string fingerprint_line(const std::string& bench,
                             const SystemConfig& cfg);

/// Standard tail of a bench harness: write the structured results file and
/// the optional Chrome trace, then print the fingerprint stamp and the
/// table (or CSV, where the stamp becomes a "#" comment line).
void finish_bench(const std::string& bench, const std::string& caption,
                  const BenchOptions& opt,
                  const std::vector<SystemConfig>& cfgs,
                  const std::vector<RunResult>& runs,
                  const std::vector<std::string>& partition_names);

}  // namespace gemsd

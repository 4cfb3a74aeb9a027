#pragma once

#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/flags.hpp"
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

/// Options of a sweep front end (gemsd_bench, gemsd_run, bench_kernel).
/// Every settable field has an entry in shared_flags or bench_flags below;
/// `--help` of each tool lists them.
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
  /// The observers as given on the command line. apply_obs_options copies
  /// the per-run ones to every sweep point, and the trace ring, time series
  /// and resource snapshot to the --trace-run point only.
  SystemConfig::ObsConfig obs{.slow_k = 10};
  std::string metrics_json;     ///< "" = results/BENCH_<bench>.json
  bool no_json = false;
  std::string trace_file;       ///< "" = no trace
  int trace_run = 0;            ///< the observed sweep point (mod #points)
  std::string timeseries_file;  ///< "" = results/TIMESERIES_<bench>.json
  std::string resources_file;   ///< "" = results/RESOURCES_<bench>.json
};

/// The flags gemsd_run accepts besides --help, bound to the members of `o`
/// (the table must not outlive it).
FlagTable shared_flags(BenchOptions& o);

/// The sweep-only flags (--quick, --measure, --warmup, --max-nodes, --seed,
/// --no-json) followed by shared_flags: what gemsd_bench and bench_kernel
/// accept.
FlagTable bench_flags(BenchOptions& o);

/// parse_flags against bench_flags(o). `o` is left with whatever was parsed
/// up to the offending argument.
std::string try_parse_bench_args(const std::vector<std::string>& args,
                                 BenchOptions& o);

/// flag_usage of bench_flags (callers prepend their own).
std::string bench_usage();

/// Strict wrapper: on any unknown flag or malformed value prints the error
/// plus usage to stderr and exits with status 2 — a typo must never run a
/// full sweep with default settings.
BenchOptions parse_bench_args(int argc, char** argv);

/// Names of the debit-credit partitions (report columns).
std::vector<std::string> debit_credit_partition_names();

/// Stamp the result-neutral options on every config of a sweep: the
/// slow-transaction log, auditors and heartbeat on all points; the trace
/// ring (when --trace was given), the time series and the resource snapshot
/// only on the --trace-run point.
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

/// Paths write_artifacts wrote ("" = not written).
struct Artifacts {
  std::string results, trace, timeseries, resources;
  /// One "<kind>: <path>" line per file written.
  void print() const;
};

/// Write every artifact the options ask for: the results document
/// (write_bench_json), then the Chrome trace (--trace), the time series
/// (--timeseries, gemsd.timeseries.v1) and the resource snapshot
/// (--resources, gemsd.resources.v1) of the --trace-run point, each stamped
/// with its git describe, seed and config hash. A requested document the
/// picked run did not record is skipped with a warning.
Artifacts write_artifacts(const std::string& bench, const std::string& caption,
                          const BenchOptions& opt,
                          const std::vector<BenchRun>& runs,
                          const std::vector<std::string>& partition_names);

/// One-line config fingerprint for human-readable report headers:
/// "bench git=<describe> seed=<seed> config=<hash>".
std::string fingerprint_line(const std::string& bench,
                             const SystemConfig& cfg);

}  // namespace gemsd

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace gemsd::obs {

struct TsSeries;
struct ResourceSet;

/// Everything one simulation run observed beyond the headline RunResult:
/// attached to RunResult as a shared_ptr so it flows through sweeps and
/// reporting without touching the table/CSV paths.
struct RunTelemetry {
  sim::SimTime stats_start = 0.0;  ///< measurement interval start
  sim::SimTime end = 0.0;          ///< simulation time at collection

  /// Flat {name, value} dump of every Metrics field plus Resource
  /// utilizations, queue depths and completion counts (the structured
  /// metrics exporter writes these under "detail").
  std::vector<std::pair<std::string, double>> detail;

  bool trace_enabled = false;
  std::vector<TraceEvent> events;    ///< measurement-interval trace
  std::uint64_t events_dropped = 0;  ///< overwritten in the ring

  /// Per-window time series (--timeseries; null when off). Simulation-time
  /// deterministic: identical at any `--jobs`.
  std::shared_ptr<const TsSeries> timeseries;

  /// Per-resource queueing snapshot (--resources; null when off). Read from
  /// counters sim::Resource maintains anyway, so it is simulation-time
  /// deterministic like the time series.
  std::shared_ptr<const ResourceSet> resources;
};

/// Serialize a run's trace as Chrome trace-event JSON (loadable in Perfetto
/// or chrome://tracing). With a time series, its measurement-interval
/// windows also become cluster-wide counter tracks. `metadata` entries are
/// {key, pre-serialized JSON value} pairs merged into "otherData" (config
/// fingerprint, seed, git). Deterministic: same run -> same bytes, at any
/// --jobs value.
std::string chrome_trace_json(
    const RunTelemetry& tel,
    const std::vector<std::pair<std::string, std::string>>& metadata);

}  // namespace gemsd::obs

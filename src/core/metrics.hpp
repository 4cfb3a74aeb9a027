#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace gemsd {

namespace obs {
class Auditor;
class TimeSeriesRecorder;
}  // namespace obs

/// Run-wide statistics, updated by every component; reset at warm-up end.
/// Device utilizations live with the devices (Resources); this class holds
/// the transaction- and protocol-level counters.
class Metrics {
 public:
  explicit Metrics(std::size_t partitions, std::size_t types = 1)
      : per_type_response(types),
        hits(partitions),
        misses(partitions),
        invalidations_by_partition(partitions) {}

  // --- transactions ---
  sim::MeanStat response;             ///< seconds, commit - arrival
  sim::BatchMeans response_batches;   ///< 95% CI via batch means
  sim::Histogram response_hist;       ///< for percentiles
  sim::MeanStat response_per_ref;     ///< per-access response (trace metric)
  std::vector<sim::MeanStat> per_type_response;
  sim::Counter commits, aborts, restarts;
  sim::Counter lost_txns;        ///< in-flight work killed by a node crash
  sim::MeanStat recovery_time;   ///< seconds from crash to full recovery
  sim::MeanStat mpl_wait;
  sim::MeanStat breakdown_cpu, breakdown_cpu_wait, breakdown_io, breakdown_cc,
      breakdown_queue;
  /// Per-phase histograms, fed the same per-commit seconds as breakdown_*;
  /// back the p50/p95/p99 phase percentiles in the results export.
  sim::Histogram breakdown_cpu_hist, breakdown_cpu_wait_hist,
      breakdown_io_hist, breakdown_cc_hist, breakdown_queue_hist;

  // --- buffer & coherency ---
  std::vector<sim::Counter> hits, misses;   ///< per partition (all nodes)
  std::vector<sim::Counter> invalidations_by_partition;
  sim::Counter invalidations;         ///< stale cached copy detected
  sim::Counter page_requests;         ///< direct page transfers requested
  sim::Counter page_request_misses;   ///< owner no longer had the copy
  sim::MeanStat page_request_delay;
  sim::Counter evict_writes;          ///< dirty LRU victims written back
  sim::Counter force_writes;

  // --- concurrency control ---
  sim::Counter lock_requests, lock_local, lock_remote, lock_auth_local;
  sim::Counter lock_waits, deadlocks;
  /// Invariant violations: a transaction accessed a locked page whose buffer
  /// copy does not carry the current version. Must stay zero; checked by the
  /// integration tests on every configuration.
  sim::Counter coherency_violations;
  sim::MeanStat lock_wait_time;
  sim::Counter revocations;           ///< read-authorization revocations

  // --- observability hooks (pure observation; never alter the simulation) ---
  /// Trace ring buffer owned by System; components guard record sites with
  /// `if (metrics.trace)`. With tracing compiled out the pointer is a
  /// constant nullptr, so every guard folds away.
#if GEMSD_TRACING_ENABLED
  obs::TraceRecorder* trace = nullptr;
#else
  static constexpr obs::TraceRecorder* trace = nullptr;
#endif
  /// Online invariant auditor owned by System (--audit; null = off). Checks
  /// are pure observation — metrics stay bit-identical either way.
  obs::Auditor* audit = nullptr;
  /// Per-window time-series recorder owned by System (--timeseries; null =
  /// off). Fed exact commit/abort events by the transaction manager.
  obs::TimeSeriesRecorder* ts = nullptr;

  double hit_ratio(std::size_t partition) const {
    const double h = static_cast<double>(hits[partition].value());
    const double m = static_cast<double>(misses[partition].value());
    return sim::safe_ratio(h, h + m);
  }
  double local_lock_fraction() const {
    const double l = static_cast<double>(lock_local.value() +
                                         lock_auth_local.value());
    const double t = static_cast<double>(lock_requests.value());
    return sim::safe_ratio(l, t, 1.0);
  }

  void reset();
};

}  // namespace gemsd

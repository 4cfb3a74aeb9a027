#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/timeseries.hpp"
#include "sim/stats.hpp"

namespace gemsd::sim {
class Resource;
}

namespace gemsd::obs {

struct JsonValue;

/// Operational-analysis layer (--resources): enumerates every queueing
/// station in a run — per-node CPU sets and MPL slot pools, each GEM shard's
/// port/GLT service, the network link, disk arms and controllers, lazily
/// built log groups, and the lock-table wait queue — and exports a
/// gemsd.resources.v1 document with per-station arrivals, completions, busy
/// server-seconds, queue-length integrals, the wait distribution on the
/// shared sim::LogBuckets sketch, and the derived operational quantities
/// (utilization U = busy/(c·H), throughput X_i, service time S_i, service
/// demand D_i = busy_i/commits). Everything is read from counters and
/// time-integrals sim::Resource already maintains: the recorder owns NO
/// scheduler events, so the metrics JSON is byte-identical with the layer on
/// or off at any `--jobs` (ctest- and CI-gated).
///
/// The same rows feed the operational-law auditors (--audit) and the
/// capacity analyzer (gemsd_analyze --bottleneck): because sim::Resource
/// tracks the in-horizon waiting time of completed and still-queued waiters
/// exactly, Little's law is checked as an *identity* on the time-integrals
///   queue_integral == waited + pending_wait
/// rather than as a statistical estimate, and the utilization law pins every
/// derived field to its raw numerator/denominator.

/// One queueing station's horizon totals plus derived operational metrics.
struct ResourceRow {
  std::string name;
  std::string kind;  ///< cpu | mpl | gem | net | disk | log | lock
  int node = -1;     ///< owning node; -1 = cluster-wide
  int capacity = 0;  ///< servers; 0 = pure delay station (no server laws)
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double busy_s = 0;            ///< busy server-seconds
  double queue_integral_s = 0;  ///< waiter-seconds (Little's left-hand side)
  double queue_mean = 0;
  std::uint64_t queue_max = 0;
  double waited_s = 0;        ///< in-horizon waiting of granted waiters
  double pending_wait_s = 0;  ///< in-horizon waiting of still-queued waiters
  std::uint64_t in_system_start = 0;  ///< busy + queued at stats reset
  std::uint64_t in_system_end = 0;    ///< busy + queued at snapshot
  TsSketch wait;  ///< per-acquisition waits; buckets empty unless recorded
  double wait_max_s = 0;
  // Derived (recomputed and reconciled from the raw fields by the analyzer).
  double utilization = 0;  ///< busy_s / (capacity · horizon)
  double throughput = 0;   ///< completions / horizon
  double service_s = 0;    ///< busy_s / completions
  double demand_s = 0;     ///< busy_s / commits: service demand per commit
  /// Commit rate at which this station alone saturates: capacity / demand.
  double saturation_tps = 0;
};

/// Snapshot of every station over one measurement horizon.
struct ResourceSet {
  double stats_start = 0;
  double end = 0;
  std::uint64_t commits = 0;
  double throughput = 0;  ///< commits / horizon: the run's measured X
  sim::LogBuckets layout;
  std::vector<ResourceRow> rows;

  double horizon() const { return end - stats_start; }
  /// Index of the named row, or -1.
  int find(const std::string& name) const;
};

/// Fill the derived fields of `row` from its raw fields.
void derive_resource_row(ResourceRow& row, double horizon,
                         std::uint64_t commits);

/// Build a row from a live station (raw totals + derived fields). `buckets`
/// is the recorder-owned dense wait histogram for this station, or null.
ResourceRow resource_row(const sim::Resource& r, std::string name,
                         std::string kind, int node, double horizon,
                         std::uint64_t commits,
                         const std::vector<std::uint64_t>* buckets);

/// Owns the per-station wait-histogram storage registered with
/// sim::Resource::set_wait_buckets. Buckets live here — not in the sim layer
/// — so recording costs one branch per acquisition when attached and nothing
/// when the flag is off.
class ResourceRecorder {
 public:
  explicit ResourceRecorder(sim::LogBuckets layout = sim::LogBuckets());
  ~ResourceRecorder();

  /// Register recorder-owned bucket storage with the station. Idempotent.
  void attach(sim::Resource& r);
  /// Zero all buckets (stats reset).
  void reset();
  const sim::LogBuckets& layout() const { return layout_; }
  /// Dense counts attached to `r`, or null when never attached.
  const std::vector<std::uint64_t>* buckets_for(const sim::Resource& r) const;

 private:
  sim::LogBuckets layout_;
  std::vector<std::pair<const sim::Resource*,
                        std::unique_ptr<std::vector<std::uint64_t>>>>
      store_;
};

/// One failed operational-law reconciliation.
struct LawViolation {
  std::string resource;
  std::string what;
};

/// Reconcile every row against the operational laws on a complete horizon:
/// busy ≤ capacity·horizon (hard invariant), the exact Little identity
/// queue_integral == waited + pending_wait, flow balance
/// arrivals − completions == in_system_end − in_system_start, and each
/// derived field against its raw numerator/denominator (utilization,
/// queue_mean, throughput, service time, demand). Pure-delay rows
/// (capacity 0) skip the server laws. `tol` is relative with a small
/// absolute floor; the defaults hold to near machine precision on every
/// shipped spec.
std::vector<LawViolation> check_resource_laws(const ResourceSet& s,
                                              double tol = 1e-6);

/// Capacity analysis of one snapshot (gemsd_analyze --bottleneck).
struct BottleneckReport {
  /// Service stations (capacity > 0) ranked by utilization, descending.
  std::vector<int> ranking;
  /// Cluster bottleneck: highest-utilization *physical* service station
  /// (MPL slot pools are admission control, not hardware, and are reported
  /// separately). -1 when the snapshot has no such station.
  int bottleneck = -1;
  /// Highest-utilization MPL pool at or above the bottleneck's utilization,
  /// -1 if none: the run is admission-limited before it is hardware-limited.
  int admission_limited = -1;
  /// Asymptotic throughput bound min_i capacity_i / demand_i (commits/s).
  double x_max = 0;
  int x_max_station = -1;
  double measured_x = 0;
  bool within_bound = true;  ///< measured_x ≤ x_max (must hold; exit 1)

  /// What-if projection at a multiple of the measured arrival rate.
  struct WhatIf {
    double factor = 1;
    double bottleneck_util = 0;  ///< f · U_b
    double throughput = 0;       ///< min(f · X, X_max)
    double resp_s = 0;           ///< Σ_i D_i / (1 − min(f·U_i, cap))
    bool saturated = false;      ///< some station reaches f·U_i ≥ 1
  };
  std::vector<WhatIf> whatifs;

  /// Bottleneck split K ways (e.g. GLT sharding): per-shard ρ = U_b/K, and
  /// the M/M/1 projections Lq_total = K·ρ²/(1−ρ), Wq = ρ·S/(1−ρ).
  struct Split {
    int ways = 1;
    double rho = 0;
    double queue_total = 0;
    double wait_s = 0;
  };
  std::vector<Split> splits;
};

BottleneckReport analyze_bottleneck(const ResourceSet& s);

/// Deterministic human-readable report (ranking table, bound check, what-if
/// and split projections, law-violation list when any).
std::string format_bottleneck_report(const ResourceSet& s,
                                     const BottleneckReport& r,
                                     const std::vector<LawViolation>& laws);

/// Serialize to the gemsd.resources.v1 document. `metadata` entries are
/// spliced verbatim as top-level key/raw-JSON pairs after "schema".
std::string resources_json(
    const ResourceSet& s,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// Parse a gemsd.resources.v1 document (as produced by resources_json).
bool resources_from_json(const JsonValue& doc, ResourceSet& out,
                         std::string& error);

}  // namespace gemsd::obs

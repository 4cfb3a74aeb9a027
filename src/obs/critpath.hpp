#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace gemsd::obs {

/// The trace replay behind tools/gemsd_analyze: one pass over a trace that
/// answers "where did the response time of the slow transactions actually
/// go?" and "which node's transactions block which?". Every second of each
/// committed transaction's response is classified — lock waits resolved to
/// what the *holder* was doing at that moment, message round trips, restart
/// backoff — so the per-class seconds of one transaction sum to its traced
/// response time by construction. The same pass sums the per-txn phase
/// totals (what reconcile() checks against the reported breakdown), ranks
/// the hot pages, counts lock-conflict pairs and replays the wait-for graph
/// (whose cycle count cross-checks the simulator's deadlock counter).
///
/// Everything here is deterministic: same events in, same bytes out, at any
/// --jobs value (each simulation owns its recorder).

/// Wall-clock seconds of one transaction (or a sum over many) classified by
/// what the transaction was waiting on. The top-level classes partition the
/// response time; the lock_holder_* fields subdivide lock_wait_s by the
/// blocking holder's concurrent activity (scaled 1/|holders| under shared
/// blocking) and sum to lock_wait_s, not on top of it.
struct CritBreakdown {
  double cpu_s = 0;        ///< processor service
  double cpu_wait_s = 0;   ///< processor queueing (kCpu span's wait prefix)
  double mpl_wait_s = 0;   ///< input queue, waiting for an MPL slot
  double io_s = 0;         ///< device reads/writes/log outside commit
  double commit_io_s = 0;  ///< commit phase 1 (log force + FORCE writes)
  double page_fetch_s = 0; ///< direct page transfers from the owning node
  double gem_s = 0;        ///< GLT entry accesses in GEM (kGemAccess)
  double lock_wait_s = 0;  ///< blocked lock requests (total)
  // lock_wait_s by concurrent holder activity (blocking chain, one level):
  double lock_holder_cpu_s = 0;    ///< holder on / queued for a processor
  double lock_holder_io_s = 0;     ///< holder in disk I/O or a page fetch
  double lock_holder_lock_s = 0;   ///< holder itself blocked on a lock
  double lock_holder_gem_s = 0;    ///< holder accessing the GLT in GEM
  double lock_holder_other_s = 0;  ///< holder between spans (messages, ...)
  double lock_unattributed_s = 0;  ///< no live wait-for edge (grant delivery)
  double msg_s = 0;     ///< gaps overlapping message processing at the node
  double backoff_s = 0; ///< restart delay after a deadlock abort
  double other_s = 0;   ///< uncovered remainder (e.g. pre-window activity)

  /// Sum of the top-level classes — reconciles with the traced response.
  double total_s() const {
    return cpu_s + cpu_wait_s + mpl_wait_s + io_s + commit_io_s +
           page_fetch_s + gem_s + lock_wait_s + msg_s + backoff_s + other_s;
  }
  void add(const CritBreakdown& o);
};

/// One committed transaction's critical path.
struct TxnCritPath {
  std::uint64_t id = 0;
  int node = -1;
  double arrival_s = 0;
  double response_s = 0;  ///< traced txn span duration
  int restarts = 0;
  CritBreakdown path;     ///< path.total_s() == response_s (up to fp error)
};

/// Per-node critical-path sums over that node's committed transactions.
struct NodeCrit {
  int node = -1;
  std::uint64_t txns = 0;
  double response_s = 0;
  CritBreakdown sum;
};

/// Per-partition contention totals from the page-scoped spans on committed
/// transactions' critical paths.
struct PartitionCrit {
  std::int32_t partition = 0;
  std::uint64_t lock_waits = 0;
  double lock_wait_s = 0;
  double page_fetch_s = 0;
  double io_s = 0;
};

/// One response-time cohort ("all", "<=p50", "p50-p90", "p90-p99", ">p99"):
/// which classes dominate the transactions in that latency band. Cohort
/// bounds come from a histogram of the traced response times, so "what
/// dominates the p99 cohort" is a direct read.
struct CohortCrit {
  std::string label;
  double lo_s = 0, hi_s = 0;  ///< response-time band [lo, hi)
  std::uint64_t txns = 0;
  double response_s = 0;  ///< summed response of the cohort's transactions
  CritBreakdown sum;
};

/// One contended page: how often and how long transactions blocked on it.
struct HotPage {
  std::int32_t partition = 0;
  std::int64_t page = 0;
  std::uint64_t waits = 0;
  double wait_s = 0;
};

/// Wait-for edges aggregated by (waiter node, holder node) — the paper's
/// local vs remote conflict signal.
struct ConflictPair {
  int waiter_node = -1;
  int holder_node = -1;
  std::uint64_t edges = 0;
};

/// Cluster-wide sums of the per-txn PhaseTotal records: the exact seconds
/// Metrics::breakdown_* averages, so they reconcile with the report.
struct PhaseSums {
  double cpu_s = 0;
  double cpu_wait_s = 0;
  double io_s = 0;
  double cc_s = 0;
  double queue_s = 0;
};

struct CritPathAnalysis {
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t txns = 0;       ///< committed transactions profiled
  std::uint64_t restarts = 0;
  double response_s = 0;        ///< summed traced response time
  CritBreakdown total;          ///< summed over all committed transactions
  PhaseSums phases;             ///< summed PhaseTotal records

  double p50_ms = 0, p90_ms = 0, p99_ms = 0;  ///< response percentiles

  std::vector<NodeCrit> nodes;            ///< ascending node id
  std::vector<PartitionCrit> partitions;  ///< lock_wait_s desc
  std::vector<CohortCrit> cohorts;        ///< all, <=p50, p50-p90, p90-p99, >p99
  /// Every committed transaction's path, slowest first; ties broken by
  /// (arrival, id) so the order is deterministic.
  std::vector<TxnCritPath> paths;

  std::vector<HotPage> hot_pages;       ///< wait_s desc, then (part, page)
  std::vector<ConflictPair> conflicts;  ///< edges desc, then pair

  // Wait-for graph replay: wait.edge instants are applied in trace order,
  // edges retire when their waiter is granted (lock.wait span or grant
  // instant), aborted (deadlock instant) or finishes (commit/restart); a
  // cycle is counted when a new waiter's edges close one — the same check
  // the simulator runs, so `cycles` cross-checks the deadlock counter.
  std::uint64_t wait_edges = 0;
  std::uint64_t cycles = 0;
  std::uint64_t deadlock_instants = 0;  ///< kDeadlock events seen

  /// Per-txn reconciliation: |path.total_s() - response_s| / response_s.
  std::uint64_t txns_within_tol = 0;  ///< within 1%
  double worst_rel_err = 0;
};

/// Compute the critical-path profile of a trace (native snapshot() order or
/// parse_chrome_trace output — message spans from an imported trace all carry
/// kMsgSend and are treated uniformly). `dropped` is the ring's overwrite
/// count; a nonzero value means early spans may be missing and their time
/// lands in the `other` class.
CritPathAnalysis critical_path(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped);

/// Human-readable report (deterministic bytes); `top_k` rows per ranking
/// (partitions, hot pages, conflict pairs, slowest transactions).
std::string format_critical_path(const CritPathAnalysis& a, int top_k = 10);

/// "gemsd.critpath.v1" document (schemas/critpath.schema.json), with the
/// `top_k` slowest transactions.
std::string critical_path_json(const CritPathAnalysis& a, int top_k = 10);

}  // namespace gemsd::obs

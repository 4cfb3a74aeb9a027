#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gemsd::obs {

/// Offline trace/metrics analysis (tools/gemsd_analyze): contention
/// attribution, wait-for graph replay, and statistical run comparison.
/// Everything here is deterministic — same inputs, same bytes out — so the
/// CLI output can be golden-tested and diffed across machines.

/// Per-node (or cluster-total, node == -1) attribution of simulated time,
/// summed over the committed transactions in the trace. The five phase
/// buckets are the exact per-txn seconds from the PhaseTotal records (the
/// same values Metrics::breakdown_* averages); lock_wait_s / page_fetch_s
/// split the cc bucket by cause, the remainder being GEM / global-lock
/// message rounds and commit processing.
struct NodeAttribution {
  int node = -1;             ///< -1 = whole cluster
  std::uint64_t txns = 0;    ///< committed transaction spans
  std::uint64_t restarts = 0;
  double resp_s = 0;         ///< sum of txn span durations
  double cpu_s = 0;
  double cpu_wait_s = 0;
  double io_s = 0;
  double cc_s = 0;
  double queue_s = 0;
  double lock_wait_s = 0;    ///< part of cc: blocked lock requests
  std::uint64_t lock_waits = 0;
  double page_fetch_s = 0;   ///< part of cc: remote page transfers
  std::uint64_t page_fetches = 0;
  /// cc minus its measured parts: GEM / GLT message rounds, lock-release
  /// processing, commit-time coherency work (never negative; clamped).
  double other_cc_s = 0;
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

struct TraceAnalysis {
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;

  NodeAttribution total;                ///< cluster-wide sums
  std::vector<NodeAttribution> nodes;   ///< ascending node id

  std::vector<HotPage> hot_pages;       ///< wait_s desc, then (part, page)
  std::vector<ConflictPair> conflicts;  ///< edges desc, then pair

  // Wait-for graph replay: wait.edge instants are applied in trace order,
  // edges retire when their waiter is granted (lock.wait span), aborted
  // (deadlock instant) or finishes (commit/restart); a cycle is counted when
  // a new waiter's edges close one — the same check the simulator runs, so
  // `cycles` cross-checks the deadlock counter.
  std::uint64_t wait_edges = 0;
  std::uint64_t cycles = 0;
  std::uint64_t deadlock_instants = 0;  ///< kDeadlock events seen
};

/// Analyze a native event stream (record order, as TraceRecorder::snapshot()
/// returns it). `dropped` is the ring's overwrite count — nonzero means spans
/// may be partial and strict reconciliation is off the table.
TraceAnalysis analyze_trace(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped);

/// Parse a "gemsd.trace.v1" Chrome trace document back into native events.
/// Spans, instants and message flows round-trip; per-txn phase args are
/// re-expanded into PhaseTotal records. Presentation metadata ("M" records)
/// and the counter tracks ("C", drawn from the time series) stay behind.
/// Returns false with `error` set on documents that are not gemsd traces.
bool parse_chrome_trace(const JsonValue& doc, std::vector<TraceEvent>& out,
                        std::uint64_t& dropped, std::string& error);

/// One phase bucket of the trace-vs-reported cross-check.
struct ReconcileLine {
  std::string phase;        ///< "cpu", "cpu_wait", "io", "cc", "queue"
  double trace_ms = 0;      ///< per-txn mean from the trace's PhaseTotals
  double reported_ms = 0;   ///< breakdown_ms from the results file
  double rel_err = 0;       ///< |trace - reported| / max(reported, eps)
};

struct Reconciliation {
  std::vector<ReconcileLine> lines;
  double worst_rel_err = 0;
  bool ok = false;  ///< every line within tolerance
};

/// Cross-check the analysis' phase sums against one run's "metrics" object
/// from a gemsd.results.v1 document (per-txn means, breakdown_ms keys).
Reconciliation reconcile(const TraceAnalysis& a, const JsonValue& metrics,
                         double tolerance = 0.01);

/// One matched run pair of a --compare invocation.
struct RunDelta {
  std::string key;           ///< label [+ name] identifying the sweep point
  double base_resp_ms = 0, cand_resp_ms = 0;
  double base_ci_ms = 0, cand_ci_ms = 0;
  double base_tput = 0, cand_tput = 0;
  /// Response regression: candidate mean above baseline by more than the
  /// combined CI half-widths AND the relative tolerance band.
  bool resp_regressed = false;
  bool resp_improved = false;
  /// Throughput regression: candidate below baseline by more than the
  /// relative tolerance (throughput carries no CI in the results schema).
  bool tput_regressed = false;
  bool tput_improved = false;
  /// Per-GEM-shard gating: when BOTH documents carry the (additive)
  /// "gem_shards" block with the same shard count, each shard's utilization
  /// and mean queue length are compared under the same relative band. A
  /// single overloaded shard regresses the pair even when the aggregate
  /// gem_util averages out. 0 when either document predates the block.
  int shard_regressions = 0;
};

struct CompareReport {
  std::vector<RunDelta> deltas;     ///< baseline document order
  int regressions = 0;              ///< matched pairs with any *_regressed
  int improvements = 0;
  std::vector<std::string> unmatched_base;  ///< keys only in the baseline
  std::vector<std::string> unmatched_cand;  ///< keys only in the candidate
  /// Non-empty: the documents are not comparable, or no run matched.
  std::string error;
};

/// Diff two gemsd.results.v1 documents. Runs are matched by config hash plus
/// run label (and bench-assigned run name, when present); `tolerance` is the
/// relative band (0.05 = 5%) added on top of the batch-means CIs.
CompareReport compare_results(const JsonValue& baseline,
                              const JsonValue& candidate,
                              double tolerance = 0.05);

/// Human-readable reports (deterministic bytes; used by the CLI and tests).
std::string format_analysis(const TraceAnalysis& a, int top_k);
std::string format_reconciliation(const Reconciliation& r);
std::string format_compare(const CompareReport& r, double tolerance);

}  // namespace gemsd::obs

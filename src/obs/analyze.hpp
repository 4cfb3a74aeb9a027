#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gemsd::obs {

/// Offline trace/metrics analysis (tools/gemsd_analyze): the Chrome-trace
/// import the critical-path replay (obs/critpath.hpp) runs on, its
/// cross-check against a results document, and statistical run comparison.
/// Everything here is deterministic — same inputs, same bytes out — so the
/// CLI output can be golden-tested and diffed across machines.

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
Reconciliation reconcile(const CritPathAnalysis& a, const JsonValue& metrics,
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
std::string format_reconciliation(const Reconciliation& r);
std::string format_compare(const CompareReport& r, double tolerance);

}  // namespace gemsd::obs

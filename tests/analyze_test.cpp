// Offline trace analysis: the contention side of the one trace replay
// (obs::critical_path — hot pages, conflict pairs, the wait-for graph replay
// against the simulator's deadlock counter, phase sums reconciled with the
// reported breakdown), the Chrome-trace round trip the gemsd_analyze CLI
// rides on, and the statistical run comparison used by the CI
// bench-regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "obs/analyze.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr std::uint64_t tid(int node, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(node) << 40) | seq;
}

// ------------------------------------------------------------ pure analysis

TEST(Analyze, EmptyTraceYieldsZeroAnalysis) {
  const obs::CritPathAnalysis a = obs::critical_path({}, 0);
  EXPECT_EQ(a.events, 0u);
  EXPECT_EQ(a.events_dropped, 0u);
  EXPECT_EQ(a.txns, 0u);
  EXPECT_TRUE(a.nodes.empty());
  EXPECT_TRUE(a.hot_pages.empty());
  EXPECT_TRUE(a.conflicts.empty());
  EXPECT_TRUE(a.paths.empty());
  EXPECT_EQ(a.wait_edges, 0u);
  EXPECT_EQ(a.cycles, 0u);
  // Formatting an empty analysis must not crash and must stay well-formed.
  const std::string s = obs::format_critical_path(a, 10);
  EXPECT_NE(s.find("0 events"), std::string::npos);
  EXPECT_NE(s.find("(none)"), std::string::npos);
}

TEST(Analyze, SyntheticTwoPartyCycleIsCounted) {
  const std::uint64_t a_id = tid(0, 1), b_id = tid(1, 1);
  obs::TraceRecorder rec(64);
  // A waits for B, then B waits for A: the second batch closes the cycle.
  rec.instant(obs::TraceName::kWaitEdge, 0, a_id, 1.0,
              static_cast<double>(b_id));
  rec.instant(obs::TraceName::kWaitEdge, 1, b_id, 2.0,
              static_cast<double>(a_id));
  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  EXPECT_EQ(an.wait_edges, 2u);
  EXPECT_EQ(an.cycles, 1u);
  // Conflict pairs carry the waiter node and the holder's node (from the id).
  ASSERT_EQ(an.conflicts.size(), 2u);
  EXPECT_EQ(an.conflicts[0].waiter_node, 0);
  EXPECT_EQ(an.conflicts[0].holder_node, 1);
}

TEST(Analyze, SyntheticThreePartyCycle) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1), c = tid(2, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 2.0, static_cast<double>(c));
  rec.instant(obs::TraceName::kWaitEdge, 2, c, 3.0, static_cast<double>(a));
  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  EXPECT_EQ(an.wait_edges, 3u);
  EXPECT_EQ(an.cycles, 1u);
}

TEST(Analyze, GrantRetiresEdgesBeforeCycleForms) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  // A's wait ends in a grant (lock.wait span) — its edge must retire.
  rec.span(obs::TraceName::kLockWait, 0, a, 1.0, 2.0, /*page=*/7.0,
           /*aux=*/0);
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 3.0, static_cast<double>(a));
  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  EXPECT_EQ(an.wait_edges, 2u);
  EXPECT_EQ(an.cycles, 0u);
  // The lock.wait span also feeds the hot-page table.
  ASSERT_EQ(an.hot_pages.size(), 1u);
  EXPECT_EQ(an.hot_pages[0].page, 7);
  EXPECT_EQ(an.hot_pages[0].waits, 1u);
}

TEST(Analyze, CommitAndRestartRetireEdges) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1);
  obs::TraceRecorder rec(64);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 1.0, static_cast<double>(b));
  rec.instant(obs::TraceName::kCommit, 0, a, 2.0);
  rec.instant(obs::TraceName::kWaitEdge, 1, b, 3.0, static_cast<double>(a));
  rec.instant(obs::TraceName::kRestart, 1, b, 4.0);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 5.0, static_cast<double>(b));
  // B commits after its restart, so its one restart is counted.
  rec.span(obs::TraceName::kTxn, 1, b, 0.0, 6.0);
  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  EXPECT_EQ(an.cycles, 0u);
  EXPECT_EQ(an.restarts, 1u);
}

// ------------------------------------------------- analysis of real traces

SystemConfig traced_config(int nodes = 2) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = nodes;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 42;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 20;
  return cfg;
}

/// The run's metrics as the gemsd.results.v1 "metrics" object (the exact
/// JSON gemsd_analyze --results consumes).
obs::JsonValue metrics_json(const RunResult& r) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("resp_ms", r.resp_ms);
  w.kv("commits", r.commits);
  w.key("breakdown_ms");
  w.begin_object();
  w.kv("cpu", r.brk_cpu_ms);
  w.kv("cpu_wait", r.brk_cpu_wait_ms);
  w.kv("io", r.brk_io_ms);
  w.kv("cc", r.brk_cc_ms);
  w.kv("queue", r.brk_queue_ms);
  w.end_object();
  w.end_object();
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(w.take(), doc, err)) << err;
  return doc;
}

TEST(Analyze, AttributionReconcilesWithReportedBreakdown) {
  const RunResult r = run_debit_credit(traced_config());
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  ASSERT_EQ(r.telemetry->events_dropped, 0u);
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  EXPECT_EQ(a.txns, r.commits);

  const obs::JsonValue m = metrics_json(r);
  const obs::Reconciliation rec = obs::reconcile(a, m, 0.01);
  EXPECT_TRUE(rec.ok) << obs::format_reconciliation(rec);
  EXPECT_LE(rec.worst_rel_err, 0.01);
  ASSERT_EQ(rec.lines.size(), 5u);
}

TEST(Analyze, ChromeTraceRoundTripMatchesNativeAnalysis) {
  const RunResult r = run_debit_credit(traced_config());
  ASSERT_TRUE(r.telemetry);
  const obs::CritPathAnalysis native =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);

  const std::string json = obs::chrome_trace_json(*r.telemetry, {});
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, doc, err)) << err;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  ASSERT_TRUE(obs::parse_chrome_trace(doc, events, dropped, err)) << err;
  const obs::CritPathAnalysis parsed = obs::critical_path(events, dropped);

  const auto lock_waits = [](const obs::CritPathAnalysis& a) {
    std::uint64_t n = 0;
    for (const obs::HotPage& hp : a.hot_pages) n += hp.waits;
    return n;
  };
  EXPECT_EQ(parsed.txns, native.txns);
  EXPECT_EQ(lock_waits(parsed), lock_waits(native));
  EXPECT_EQ(parsed.wait_edges, native.wait_edges);
  EXPECT_EQ(parsed.cycles, native.cycles);
  EXPECT_EQ(parsed.deadlock_instants, native.deadlock_instants);
  EXPECT_EQ(parsed.hot_pages.size(), native.hot_pages.size());
  // Timestamps go through a fixed-point microsecond encoding; phase sums
  // survive to within a microsecond per transaction.
  EXPECT_NEAR(parsed.phases.cpu_s, native.phases.cpu_s,
              1e-6 * static_cast<double>(native.txns) + 1e-9);
  EXPECT_NEAR(parsed.phases.io_s, native.phases.io_s,
              1e-6 * static_cast<double>(native.txns) + 1e-9);
}

TEST(Analyze, ParserRejectsForeignDocuments) {
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse("{\"traceEvents\":[]}", doc, err));
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  EXPECT_FALSE(obs::parse_chrome_trace(doc, events, dropped, err));
  EXPECT_FALSE(err.empty());
}

TEST(Analyze, RingDropsAreSurfacedAndSurvivable) {
  SystemConfig cfg = traced_config();
  cfg.obs.trace_capacity = 1 << 10;  // deliberately too small
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry);
  ASSERT_GT(r.telemetry->events_dropped, 0u);
  // Partial spans (txn commits whose start fell off the ring) must not
  // derail the analysis; the drop count travels with the result.
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  EXPECT_EQ(a.events_dropped, r.telemetry->events_dropped);
  EXPECT_GT(a.txns, 0u);
  EXPECT_LT(a.txns, r.commits);
}

// ------------------------------------------ wait-for replay vs the simulator

class ModGla : public workload::GlaMap {
 public:
  explicit ModGla(int nodes) : nodes_(nodes) {}
  NodeId gla(PageId p) const override {
    return static_cast<NodeId>(p.page % nodes_);
  }

 private:
  int nodes_;
};

struct NullGen : workload::WorkloadGenerator {
  TxnSpec next(sim::Rng&) override { return {}; }
  int num_types() const override { return 1; }
};

/// Deadlock-prone workload: short transactions locking random pages of a
/// tiny hot partition in random order (the stress-test recipe, seeded).
void run_hostile(SystemConfig cfg, std::uint64_t seed, RunResult& out,
                 std::vector<obs::TraceEvent>& events,
                 std::uint64_t& dropped) {
  // Deep lock queues emit one wait.edge per blocker, so keep the MPL modest
  // or the ring (which must hold the WHOLE run for an exact replay) blows up.
  cfg.mpl = 30;
  cfg.partitions.resize(1);
  auto& pc = cfg.partitions[0];
  pc.name = "T";
  pc.pages_per_unit = 48;
  pc.locked = true;
  pc.disks_per_unit = 8;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 21;

  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<ModGla>(cfg.nodes);
  System sys(cfg, std::move(wl));

  sim::Rng rng(seed);
  const int kTxns = 300;
  for (int i = 0; i < kTxns; ++i) {
    TxnSpec t;
    const int len = static_cast<int>(rng.uniform_int(2, 6));
    for (int k = 0; k < len; ++k) {
      t.refs.push_back(PageRef{PageId{0, rng.uniform_int(0, 47)},
                               rng.bernoulli(0.5)});
    }
    sys.submit(static_cast<NodeId>(rng.uniform_int(0, cfg.nodes - 1)), t);
  }
  sys.scheduler().run_all();
  out = sys.collect();
  ASSERT_NE(sys.trace(), nullptr);
  events = sys.trace()->snapshot();
  dropped = sys.trace()->dropped();
}

class WaitForReplay : public ::testing::TestWithParam<Coupling> {};

TEST_P(WaitForReplay, CycleCountMatchesDeadlockCounter) {
  SystemConfig cfg;
  cfg.nodes = 3;
  cfg.coupling = GetParam();
  cfg.update = GetParam() == Coupling::LockEngine ? UpdateStrategy::Force
                                                  : UpdateStrategy::NoForce;

  RunResult r;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  run_hostile(cfg, 1234, r, events, dropped);
  ASSERT_EQ(dropped, 0u);
  ASSERT_GT(r.deadlocks, 0u) << "workload not hostile enough to deadlock";

  const obs::CritPathAnalysis a = obs::critical_path(events, dropped);
  EXPECT_EQ(a.deadlock_instants, r.deadlocks);
  EXPECT_EQ(a.cycles, r.deadlocks)
      << "replayed wait-for cycles diverge from the simulator's verdicts";
  EXPECT_GT(a.wait_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Couplings, WaitForReplay,
                         ::testing::Values(Coupling::GemLocking,
                                           Coupling::PrimaryCopy,
                                           Coupling::LockEngine),
                         [](const auto& info) {
                           switch (info.param) {
                             case Coupling::GemLocking: return "GEM";
                             case Coupling::PrimaryCopy: return "PCL";
                             case Coupling::LockEngine: return "LE";
                           }
                           return "?";
                         });

// ------------------------------------------------------------- comparison

std::string results_doc(double resp_ms, double ci_ms, double tput,
                        const char* label = "GEM/NOFORCE/random",
                        const char* name = "") {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "gemsd.results.v1");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.kv("config_hash", "abcd");
  w.kv("name", name);
  w.key("metrics");
  w.begin_object();
  w.kv("label", label);
  w.kv("resp_ms", resp_ms);
  w.kv("resp_ci_ms", ci_ms);
  w.kv("throughput", tput);
  w.end_object();
  w.end_object();
  w.end_array();
  w.end_object();
  return w.take();
}

obs::JsonValue parse(const std::string& s) {
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(s, doc, err)) << err;
  return doc;
}

TEST(Compare, QuietOnIdenticalRuns) {
  const obs::JsonValue a = parse(results_doc(60.0, 1.5, 1000.0));
  const obs::JsonValue b = parse(results_doc(60.0, 1.5, 1000.0));
  const obs::CompareReport rep = obs::compare_results(a, b, 0.05);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_EQ(rep.improvements, 0);
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_TRUE(rep.unmatched_base.empty());
  EXPECT_TRUE(rep.unmatched_cand.empty());
}

TEST(Compare, FlagsInjectedTenPercentThroughputRegression) {
  const obs::JsonValue a = parse(results_doc(60.0, 1.5, 1000.0));
  const obs::JsonValue b = parse(results_doc(60.0, 1.5, 900.0));
  const obs::CompareReport rep = obs::compare_results(a, b, 0.05);
  EXPECT_EQ(rep.regressions, 1);
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_TRUE(rep.deltas[0].tput_regressed);
  EXPECT_FALSE(rep.deltas[0].resp_regressed);
  EXPECT_NE(obs::format_compare(rep, 0.05).find("REGRESSION"),
            std::string::npos);
}

TEST(Compare, ResponseDeltaInsideCombinedCiIsNotSignificant) {
  // +8% response, but the batch-means CIs overlap more than that: quiet.
  const obs::JsonValue a = parse(results_doc(60.0, 3.0, 1000.0));
  const obs::JsonValue b = parse(results_doc(64.8, 3.0, 1000.0));
  const obs::CompareReport rep = obs::compare_results(a, b, 0.05);
  EXPECT_EQ(rep.regressions, 0);
  ASSERT_EQ(rep.deltas.size(), 1u);
  EXPECT_FALSE(rep.deltas[0].resp_regressed);
}

TEST(Compare, SingleBatchZeroCiFallsBackToRelativeBand) {
  // Single-batch runs report a 0 CI half-width; the relative band still
  // applies, so a genuine 50% regression is flagged...
  const obs::JsonValue a = parse(results_doc(60.0, 0.0, 1000.0));
  const obs::JsonValue b = parse(results_doc(90.0, 0.0, 1000.0));
  EXPECT_EQ(obs::compare_results(a, b, 0.05).regressions, 1);
  // ...while an all-zero run (kernel benches: no simulated metrics) can
  // never trip the gate.
  const obs::JsonValue z1 = parse(results_doc(0.0, 0.0, 0.0));
  const obs::JsonValue z2 = parse(results_doc(0.0, 0.0, 0.0));
  EXPECT_EQ(obs::compare_results(z1, z2, 0.05).regressions, 0);
}

TEST(Compare, RunsMatchByNameWithinSharedConfig) {
  const obs::JsonValue a =
      parse(results_doc(0.0, 0.0, 0.0, "kernel", "BM_QueueDepth/100"));
  const obs::JsonValue b =
      parse(results_doc(0.0, 0.0, 0.0, "kernel", "BM_ScheduleCallbacks"));
  const obs::CompareReport rep = obs::compare_results(a, b, 0.05);
  EXPECT_TRUE(rep.deltas.empty());
  ASSERT_EQ(rep.unmatched_base.size(), 1u);
  ASSERT_EQ(rep.unmatched_cand.size(), 1u);
  EXPECT_NE(rep.unmatched_base[0].find("BM_QueueDepth/100"),
            std::string::npos);
}

TEST(Compare, FailsWhenNoRunMatches) {
  // Every run key changed (here the config hash): nothing is compared, so
  // the gate must not report a clean pass.
  std::string moved = results_doc(60.0, 1.5, 1000.0);
  moved.replace(moved.find("abcd"), 4, "ef01");
  const obs::JsonValue a = parse(results_doc(60.0, 1.5, 1000.0));
  const obs::JsonValue b = parse(moved);
  const obs::CompareReport rep = obs::compare_results(a, b, 0.05);
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_NE(rep.error.find("no baseline run matches"), std::string::npos)
      << rep.error;
  EXPECT_EQ(rep.unmatched_base.size(), 1u);
  EXPECT_EQ(rep.unmatched_cand.size(), 1u);
}

TEST(Compare, RejectsForeignDocuments) {
  const obs::JsonValue a = parse("{\"schema\":\"something.else\"}");
  const obs::JsonValue b = parse(results_doc(1.0, 0.0, 1.0));
  EXPECT_FALSE(obs::compare_results(a, b, 0.05).error.empty());
}

}  // namespace
}  // namespace gemsd

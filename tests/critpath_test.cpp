// Critical-path profiler (src/obs/critpath.*): blocking-chain attribution on
// synthetic recorder streams, reconciliation against traced response times on
// real GEM and PCL runs, the Chrome-trace import round trip (flows and
// counters included), the --trace-filter recording mask, and the per-phase
// percentile export.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "obs/analyze.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace gemsd {
namespace {

constexpr std::uint64_t tid(int node, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(node) << 40) | seq;
}

SystemConfig traced_config(Coupling coupling, int nodes = 2) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = nodes;
  cfg.coupling = coupling;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 42;
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 20;
  return cfg;
}

// ------------------------------------------------------------ pure profiler

TEST(CritPath, EmptyTraceYieldsEmptyProfile) {
  const obs::CritPathAnalysis a = obs::critical_path({}, 0);
  EXPECT_EQ(a.txns, 0u);
  EXPECT_EQ(a.total.total_s(), 0.0);
  ASSERT_EQ(a.cohorts.size(), 5u);
  EXPECT_EQ(a.cohorts[0].label, "all");
  // Formatting and JSON export of an empty profile must stay well-formed.
  EXPECT_NE(obs::format_critical_path(a, 10).find("0 committed txns"),
            std::string::npos);
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(obs::critical_path_json(a), doc, err)) << err;
}

TEST(CritPath, HolderActivityResolvesLockWaits) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1);
  obs::TraceRecorder rec(64);
  // A: cpu burst (0.5 s queueing first), then 6 s blocked on B, then cpu.
  rec.span(obs::TraceName::kCpu, 0, a, 0.0, 2.0, /*wait=*/0.5);
  rec.span(obs::TraceName::kLockWait, 0, a, 2.0, 8.0, /*page=*/3.0,
           /*aux=*/1);
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 2.0, static_cast<double>(b));
  rec.span(obs::TraceName::kCpu, 0, a, 8.0, 10.0, 0.0);
  rec.span(obs::TraceName::kTxn, 0, a, 0.0, 10.0);
  // B (the holder): disk I/O for the first half of the wait, CPU after.
  rec.span(obs::TraceName::kIoWrite, 1, b, 2.0, 5.0, /*page=*/3.0, /*aux=*/1);
  rec.span(obs::TraceName::kCpu, 1, b, 5.0, 8.0, 0.0);

  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  ASSERT_EQ(an.txns, 1u);
  const obs::CritBreakdown& p = an.total;
  EXPECT_NEAR(p.cpu_s, 3.5, 1e-12);
  EXPECT_NEAR(p.cpu_wait_s, 0.5, 1e-12);
  EXPECT_NEAR(p.lock_wait_s, 6.0, 1e-12);
  EXPECT_NEAR(p.lock_holder_io_s, 3.0, 1e-12);
  EXPECT_NEAR(p.lock_holder_cpu_s, 3.0, 1e-12);
  EXPECT_NEAR(p.total_s(), 10.0, 1e-12);
  EXPECT_EQ(an.txns_within_tol, 1u);
  // Partition attribution follows the lock.wait span's aux field.
  ASSERT_FALSE(an.partitions.empty());
  EXPECT_EQ(an.partitions[0].partition, 1);
  EXPECT_EQ(an.partitions[0].lock_waits, 1u);
  EXPECT_NEAR(an.partitions[0].lock_wait_s, 6.0, 1e-12);
}

TEST(CritPath, SharedBlockingSplitsAcrossHolders) {
  const std::uint64_t a = tid(0, 1), b = tid(1, 1), c = tid(1, 2);
  obs::TraceRecorder rec(64);
  rec.span(obs::TraceName::kLockWait, 0, a, 0.0, 4.0, 3.0, 0);
  // One wait.edge batch: A blocked by both B and C.
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 0.0, static_cast<double>(b));
  rec.instant(obs::TraceName::kWaitEdge, 0, a, 0.0, static_cast<double>(c));
  rec.span(obs::TraceName::kTxn, 0, a, 0.0, 4.0);
  rec.span(obs::TraceName::kIoRead, 1, b, 0.0, 4.0, 1.0, 0);   // B: all I/O
  rec.span(obs::TraceName::kGemAccess, 1, c, 0.0, 4.0);        // C: all GEM

  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  ASSERT_EQ(an.txns, 1u);
  EXPECT_NEAR(an.total.lock_wait_s, 4.0, 1e-12);
  EXPECT_NEAR(an.total.lock_holder_io_s, 2.0, 1e-12);
  EXPECT_NEAR(an.total.lock_holder_gem_s, 2.0, 1e-12);
}

TEST(CritPath, GapsClassifyAsBackoffMessageOrOther) {
  const std::uint64_t a = tid(0, 1);
  obs::TraceRecorder rec(64);
  rec.span(obs::TraceName::kCpu, 0, a, 0.0, 2.0, 0.0);
  rec.instant(obs::TraceName::kRestart, 0, a, 2.0);  // backoff gap [2, 4)
  rec.span(obs::TraceName::kCpu, 0, a, 4.0, 6.0, 0.0);
  // Message gap [6, 9): the request leaves node 0 right at the gap start.
  rec.flow(obs::TraceKind::FlowBegin, 0, 77, 6.0, false);
  rec.span(obs::TraceName::kMsgSend, 0, 77, 6.0, 6.5);
  rec.span(obs::TraceName::kCpu, 0, a, 9.0, 9.5, 0.0);
  // Uncovered gap [9.5, 10): nothing explains it.
  rec.span(obs::TraceName::kTxn, 0, a, 0.0, 10.0);

  const obs::CritPathAnalysis an = obs::critical_path(rec.snapshot(), 0);
  ASSERT_EQ(an.txns, 1u);
  EXPECT_NEAR(an.total.cpu_s, 4.5, 1e-12);
  EXPECT_NEAR(an.total.backoff_s, 2.0, 1e-12);
  EXPECT_NEAR(an.total.msg_s, 3.0, 1e-12);
  EXPECT_NEAR(an.total.other_s, 0.5, 1e-12);
  EXPECT_NEAR(an.total.total_s(), 10.0, 1e-12);
}

// -------------------------------------------- reconciliation on real traces

void expect_reconciles(Coupling coupling, bool expect_gem) {
  const RunResult r = run_debit_credit(traced_config(coupling));
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  ASSERT_EQ(r.telemetry->events_dropped, 0u);
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  EXPECT_EQ(a.txns, r.commits);
  ASSERT_GT(a.txns, 0u);
  // The acceptance bar: >= 99% of committed txns reconcile within 1% of the
  // traced response. By construction the sweep covers every second, so the
  // only slack is floating point.
  EXPECT_GE(static_cast<double>(a.txns_within_tol),
            0.99 * static_cast<double>(a.txns));
  EXPECT_LE(a.worst_rel_err, 1e-6);
  // The summed critical paths equal the summed responses.
  EXPECT_NEAR(a.total.total_s(), a.response_s,
              1e-9 * static_cast<double>(a.txns) + 1e-12);
  if (expect_gem) {
    EXPECT_GT(a.total.gem_s, 0.0);  // GLT accesses on the path
  } else {
    EXPECT_EQ(a.total.gem_s, 0.0);  // loose coupling never touches GEM
  }
  // Percentile cohorts partition the population: all = sum of the bands.
  ASSERT_EQ(a.cohorts.size(), 5u);
  EXPECT_EQ(a.cohorts[0].txns, a.cohorts[1].txns + a.cohorts[2].txns +
                                   a.cohorts[3].txns + a.cohorts[4].txns);
  EXPECT_LE(a.p50_ms, a.p90_ms);
  EXPECT_LE(a.p90_ms, a.p99_ms);
}

TEST(CritPath, ReconcilesWithTracedResponseGem) {
  expect_reconciles(Coupling::GemLocking, /*expect_gem=*/true);
}

TEST(CritPath, ReconcilesWithTracedResponsePcl) {
  expect_reconciles(Coupling::PrimaryCopy, /*expect_gem=*/false);
}

TEST(CritPath, ImportedTraceMatchesNativeProfile) {
  const RunResult r = run_debit_credit(traced_config(Coupling::GemLocking));
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
  const obs::CritPathAnalysis imported = obs::critical_path(events, dropped);

  EXPECT_EQ(imported.txns, native.txns);
  // Timestamps ride a microsecond encoding; per-txn classes survive to
  // within a microsecond each.
  const double tol = 2e-6 * static_cast<double>(native.txns) + 1e-9;
  EXPECT_NEAR(imported.total.total_s(), native.total.total_s(), tol);
  EXPECT_NEAR(imported.total.cpu_s, native.total.cpu_s, tol);
  EXPECT_NEAR(imported.total.lock_wait_s, native.total.lock_wait_s, tol);
  EXPECT_NEAR(imported.total.gem_s, native.total.gem_s, tol);
  EXPECT_GE(static_cast<double>(imported.txns_within_tol),
            0.99 * static_cast<double>(imported.txns));
}

TEST(CritPath, JsonValidatesAgainstCommittedSchema) {
  const RunResult r = run_debit_credit(traced_config(Coupling::GemLocking));
  ASSERT_TRUE(r.telemetry);
  const obs::CritPathAnalysis a =
      obs::critical_path(r.telemetry->events, r.telemetry->events_dropped);
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::critical_path_json(a), doc, err)) << err;

  std::ifstream f(std::string(GEMSD_SOURCE_DIR) +
                  "/schemas/critpath.schema.json");
  std::stringstream ss;
  ss << f.rdbuf();
  obs::JsonValue schema;
  ASSERT_TRUE(obs::json_parse(ss.str(), schema, err)) << err;
  std::vector<std::string> problems;
  EXPECT_TRUE(obs::json_schema_validate(schema, doc, problems))
      << (problems.empty() ? "" : problems.front());
}

// ------------------------------------------------------ flow import round trip

TEST(ChromeImport, FlowsRoundTripAndCounterTracksStayBehind) {
  obs::RunTelemetry tel;
  tel.trace_enabled = true;
  obs::TraceRecorder rec(64);
  rec.flow(obs::TraceKind::FlowBegin, 0, 9, 2.0, /*long_msg=*/true);
  rec.flow(obs::TraceKind::FlowEnd, 1, 9, 2.5, /*long_msg=*/true);
  rec.flow(obs::TraceKind::FlowBegin, 1, 10, 3.0, /*long_msg=*/false);
  tel.events = rec.snapshot();
  // A one-window time series: the exporter draws counter tracks from it.
  auto ts = std::make_shared<obs::TsSeries>();
  ts->window_s = 4.0;
  ts->end = 4.0;
  ts->windows.resize(1);
  ts->windows[0].commits = 8;
  tel.timeseries = ts;

  obs::JsonValue doc;
  std::string err;
  const std::string json = obs::chrome_trace_json(tel, {});
  ASSERT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  ASSERT_TRUE(obs::json_parse(json, doc, err)) << err;
  std::vector<obs::TraceEvent> events;
  std::uint64_t dropped = 0;
  ASSERT_TRUE(obs::parse_chrome_trace(doc, events, dropped, err)) << err;
  // The counter tracks are presentation, like the metadata records: only
  // the three flows come back.
  ASSERT_EQ(events.size(), 3u);

  EXPECT_EQ(events[0].kind, obs::TraceKind::FlowBegin);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_EQ(events[0].id, 9u);
  EXPECT_DOUBLE_EQ(events[0].value, 1.0);  // long-message flag
  EXPECT_EQ(events[1].kind, obs::TraceKind::FlowEnd);
  EXPECT_EQ(events[1].node, 1);
  EXPECT_EQ(events[1].id, 9u);
  EXPECT_EQ(events[2].kind, obs::TraceKind::FlowBegin);
  EXPECT_DOUBLE_EQ(events[2].value, 0.0);  // short message: no "v" emitted
}

// ----------------------------------------------------------- --trace-filter

TEST(TraceFilter, MaskMatchesEventNames) {
  const auto all = obs::trace_name_filter("");
  for (bool b : all) EXPECT_TRUE(b);
  const auto io = obs::trace_name_filter("^io\\.");
  EXPECT_TRUE(io[static_cast<std::size_t>(obs::TraceName::kIoRead)]);
  EXPECT_TRUE(io[static_cast<std::size_t>(obs::TraceName::kIoLog)]);
  EXPECT_FALSE(io[static_cast<std::size_t>(obs::TraceName::kCpu)]);
  EXPECT_FALSE(io[static_cast<std::size_t>(obs::TraceName::kCommitIo)]);
  EXPECT_THROW((void)obs::trace_name_filter("("), std::regex_error);
}

TEST(TraceFilter, FilteredEventsNeverEnterTheRing) {
  obs::TraceRecorder rec(4);  // tiny on purpose
  rec.set_filter(obs::trace_name_filter("^commit$"));
  for (int i = 0; i < 100; ++i) {
    rec.span(obs::TraceName::kCpu, 0, tid(0, 1), i, i + 0.5);
  }
  rec.instant(obs::TraceName::kCommit, 0, tid(0, 1), 100.0);
  // Filtered events occupy no slots and never count as dropped.
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.snapshot()[0].name, obs::TraceName::kCommit);
}

TEST(TraceFilter, DoesNotPerturbTheSimulationAndRecordsOnlyMatches) {
  SystemConfig plain = traced_config(Coupling::GemLocking);
  SystemConfig filtered = plain;
  filtered.obs.trace_filter = "^(txn|lock\\.wait)$";
  const RunResult a = run_debit_credit(plain);
  const RunResult b = run_debit_credit(filtered);
  // Recording is observation-only: the filter cannot change the simulation.
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_DOUBLE_EQ(a.resp_ms, b.resp_ms);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  ASSERT_TRUE(b.telemetry);
  ASSERT_GT(b.telemetry->events.size(), 0u);
  for (const obs::TraceEvent& e : b.telemetry->events) {
    EXPECT_TRUE(e.name == obs::TraceName::kTxn ||
                e.name == obs::TraceName::kLockWait)
        << obs::to_string(e.name);
  }
  EXPECT_LT(b.telemetry->events.size(), a.telemetry->events.size());
}

TEST(TraceFilter, BenchArgsValidateTheRegexUpFront) {
  BenchOptions o;
  EXPECT_TRUE(try_parse_bench_args({"--trace-filter=^io\\."}, o).empty());
  EXPECT_EQ(o.obs.trace_filter, "^io\\.");
  BenchOptions bad;
  const std::string err = try_parse_bench_args({"--trace-filter=("}, bad);
  EXPECT_NE(err.find("not a valid regex"), std::string::npos) << err;
}

// ------------------------------------------------- per-phase percentiles

TEST(Percentiles, ResponseAndPhasePercentilesAreExported) {
  SystemConfig cfg = traced_config(Coupling::GemLocking);
  cfg.obs.trace = false;
  const RunResult r = run_debit_credit(cfg);
  ASSERT_GT(r.commits, 0u);
  EXPECT_GT(r.pct_resp.p50, 0.0);
  EXPECT_LE(r.pct_resp.p50, r.pct_resp.p95);
  EXPECT_LE(r.pct_resp.p95, r.pct_resp.p99);
  // The median response sits in the same regime as the mean.
  EXPECT_LT(r.pct_resp.p50, 3.0 * r.resp_ms);
  EXPECT_GT(r.pct_resp.p99, 0.5 * r.resp_ms);
  // Phase percentiles are per-txn milliseconds of the same histograms the
  // breakdown means come from.
  EXPECT_GT(r.pct_cpu.p50, 0.0);
  EXPECT_LE(r.pct_cpu.p50, r.pct_cpu.p99);
  EXPECT_LE(r.pct_io.p50, r.pct_io.p99);
  EXPECT_LE(r.pct_cc.p50, r.pct_cc.p99);
  EXPECT_LE(r.pct_queue.p50, r.pct_queue.p99);
}

}  // namespace
}  // namespace gemsd

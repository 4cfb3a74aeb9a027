// Time-series recorder tests (obs/timeseries.hpp, --timeseries): the sketch
// merge algebra (associative, commutative), the coarsening bound (window
// count stays under cap, totals survive, width doubles), pro-rata folding of
// polled counters, the gemsd.timeseries.v1 document (schema, round trip,
// CSV), the MSER warm-up estimator and batch-means drift gate on synthetic
// series, and the two contracts everything rests on — the exported document
// is identical at any --jobs on a shipped spec, and the metrics are untouched
// with the recorder on or off. Suite names start with "TimeSeries" so the
// TSan CI job covers the sweep-pool path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "sim/stats.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace {

using namespace gemsd;

// --- sketch algebra -------------------------------------------------------

obs::TsSketch sketch_of(const sim::LogBuckets& lb,
                        std::initializer_list<double> xs) {
  obs::TsSketch s;
  for (double x : xs) s.add(lb, x);
  return s;
}

TEST(TimeSeriesSketch, MergeIsCommutativeAndAssociative) {
  const sim::LogBuckets lb;
  const obs::TsSketch a = sketch_of(lb, {0.001, 0.02, 0.02, 5.0});
  const obs::TsSketch b = sketch_of(lb, {1e-9, 0.5});  // underflow included
  const obs::TsSketch c = sketch_of(lb, {200.0});      // overflow included

  obs::TsSketch ab = a;
  ab.merge_from(b);
  obs::TsSketch ba = b;
  ba.merge_from(a);
  EXPECT_EQ(ab, ba);

  obs::TsSketch ab_c = ab;
  ab_c.merge_from(c);
  obs::TsSketch bc = b;
  bc.merge_from(c);
  obs::TsSketch a_bc = a;
  a_bc.merge_from(bc);
  EXPECT_EQ(ab_c, a_bc);

  EXPECT_EQ(ab_c.count, 7u);
  EXPECT_DOUBLE_EQ(ab_c.sum_s, 0.001 + 0.02 + 0.02 + 5.0 + 1e-9 + 0.5 + 200);

  // Merging into an empty sketch is the identity on the other operand.
  obs::TsSketch empty;
  empty.merge_from(a);
  EXPECT_EQ(empty, a);
  obs::TsSketch a2 = a;
  a2.merge_from(obs::TsSketch{});
  EXPECT_EQ(a2, a);
}

TEST(TimeSeriesSketch, QuantilesMatchHistogramLayout) {
  const sim::LogBuckets lb;
  obs::TsSketch s;
  sim::Histogram h;
  for (int i = 1; i <= 100; ++i) {
    const double x = 0.001 * i;
    s.add(lb, x);
    h.add(x);
  }
  // Same bucket layout, same interpolation: quantiles agree exactly.
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(s.quantile(lb, q), h.quantile(q)) << "q=" << q;
  }
}

// --- recorder: coarsening and pro-rata folds ------------------------------

TEST(TimeSeriesRecorder, CoarseningBoundsWindowsAndKeepsTotals) {
  obs::TimeSeriesRecorder rec(0.5, 4, 1);  // cap at 4 windows
  // 40 commits across [0, 20): 80 base windows' worth of span.
  for (int i = 0; i < 40; ++i) {
    rec.on_commit(0.5 * i + 0.25, 0, 0.01);
  }
  EXPECT_LE(rec.window_count(), 4u);
  EXPECT_GT(rec.coarsenings(), 0);
  // Width doubled once per coarsening; 20 s / 4 windows needs >= 8 s widths.
  EXPECT_DOUBLE_EQ(rec.window_s(), 0.5 * std::pow(2.0, rec.coarsenings()));
  EXPECT_GE(rec.window_s() * static_cast<double>(rec.window_count()), 20.0);

  const obs::TsSeries s = rec.snapshot(20.0);
  std::uint64_t commits = 0, resp_count = 0;
  double resp_sum = 0;
  for (const obs::TsWindow& w : s.windows) {
    commits += w.commits;
    resp_count += w.resp.count;
    resp_sum += w.resp.sum_s;
    ASSERT_EQ(w.nodes.size(), 1u);
    EXPECT_EQ(w.nodes[0].commits, w.commits);
  }
  EXPECT_EQ(commits, 40u);       // coarsening loses resolution, never data
  EXPECT_EQ(resp_count, 40u);
  EXPECT_NEAR(resp_sum, 0.4, 1e-12);
  EXPECT_EQ(s.coarsenings, rec.coarsenings());
  EXPECT_DOUBLE_EQ(s.base_window_s, 0.5);
  EXPECT_DOUBLE_EQ(s.window_s, rec.window_s());
}

TEST(TimeSeriesRecorder, PollDeltasDistributedProRata) {
  obs::TimeSeriesRecorder rec(1.0, 64, 1);
  std::uint64_t events = 0;
  double cpu = 0;
  rec.set_poller([&](obs::TsCumulative& c) {
    c.events = events;
    c.cpu_busy_s = cpu;
  });

  // The first hook stays in window 0 (no poll); the hook at t=2.5 lands in
  // window 2 and polls, distributing the 200 events / 2.0 busy-s accumulated
  // over [0, 2.5) as 40% / 40% / 20% by time overlap.
  rec.on_commit(0.5, 0, 0.01);
  events = 200;
  cpu = 2.0;
  rec.on_commit(2.5, 0, 0.01);
  rec.fold(3.0);  // zero delta: nothing moves after the poll

  const obs::TsSeries s = rec.snapshot(3.0);
  ASSERT_GE(s.windows.size(), 3u);
  EXPECT_NEAR(s.windows[0].events, 80.0, 1e-9);
  EXPECT_NEAR(s.windows[1].events, 80.0, 1e-9);
  EXPECT_NEAR(s.windows[2].events, 40.0, 1e-9);
  EXPECT_NEAR(s.windows[0].cpu_busy_s, 0.8, 1e-9);
  EXPECT_NEAR(s.windows[1].cpu_busy_s, 0.8, 1e-9);
  EXPECT_NEAR(s.windows[2].cpu_busy_s, 0.4, 1e-9);
  // Exact hook-fed placement is untouched by the distribution.
  EXPECT_EQ(s.windows[0].commits, 1u);
  EXPECT_EQ(s.windows[2].commits, 1u);
}

TEST(TimeSeriesRecorder, RebaseSurvivesCounterReset) {
  obs::TimeSeriesRecorder rec(1.0, 64, 1);
  std::uint64_t events = 0;
  rec.set_poller([&](obs::TsCumulative& c) { c.events = events; });

  rec.on_commit(0.5, 0, 0.01);
  events = 100;
  rec.fold(1.0);  // window 0 absorbs all 100 events of [0, 1.0)

  // Stats reset: counters zeroed, recorder rebased (not folded again).
  events = 0;
  rec.rebase(1.0);
  rec.mark_stats_start(1.0);
  events = 60;
  rec.on_commit(2.5, 0, 0.01);
  rec.fold(3.0);

  const obs::TsSeries s = rec.snapshot(3.0);
  ASSERT_GE(s.windows.size(), 3u);
  // Nothing double-counted, nothing lost to the unsigned wrap guard: window
  // 0 keeps its pre-reset 100, [1.0, 2.5) splits the post-reset 60 as 40/20.
  EXPECT_NEAR(s.windows[0].events, 100.0, 1e-9);
  EXPECT_NEAR(s.windows[1].events, 40.0, 1e-9);
  EXPECT_NEAR(s.windows[2].events, 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.stats_start, 1.0);
}

// --- document / CSV -------------------------------------------------------

SystemConfig small_system() {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 2;
  cfg.warmup = 0.1;
  cfg.measure = 0.4;
  return cfg;
}

obs::TsSeries sample_series() {
  SystemConfig cfg = small_system();
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window = 0.05;
  const RunResult r = run_debit_credit(cfg);
  EXPECT_TRUE(r.telemetry && r.telemetry->timeseries);
  return *r.telemetry->timeseries;
}

TEST(TimeSeriesJson, ValidatesAgainstCommittedSchema) {
  const obs::TsSeries s = sample_series();
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(
      obs::timeseries_json(s, {{"git", "\"test\""}}), doc, err))
      << err;

  std::ifstream f(std::string(GEMSD_SOURCE_DIR) +
                  "/schemas/timeseries.schema.json");
  ASSERT_TRUE(f.good()) << "schemas/ not reachable";
  std::stringstream ss;
  ss << f.rdbuf();
  obs::JsonValue schema;
  ASSERT_TRUE(obs::json_parse(ss.str(), schema, err)) << err;
  std::vector<std::string> problems;
  EXPECT_TRUE(obs::json_schema_validate(schema, doc, problems))
      << (problems.empty() ? "" : problems.front());
}

TEST(TimeSeriesJson, RoundTripIsExact) {
  const obs::TsSeries s = sample_series();
  ASSERT_FALSE(s.windows.empty());
  const std::string text = obs::timeseries_json(s, {});
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(text, doc, err)) << err;

  obs::TsSeries q;
  ASSERT_TRUE(obs::timeseries_from_json(doc, q, err)) << err;
  // Re-serialising the parsed series reproduces the document byte for byte:
  // integers are exact and doubles survive the %.12g round trip here.
  EXPECT_EQ(obs::timeseries_json(q, {}), text);
  EXPECT_EQ(q.windows.size(), s.windows.size());
  EXPECT_EQ(q.nodes, s.nodes);

  // Rejects a non-timeseries document.
  obs::JsonValue bogus;
  ASSERT_TRUE(obs::json_parse("{\"schema\":\"other.v1\"}", bogus, err));
  obs::TsSeries out;
  EXPECT_FALSE(obs::timeseries_from_json(bogus, out, err));
}

TEST(TimeSeriesJson, CsvHasHeaderAndOneRowPerWindow) {
  const obs::TsSeries s = sample_series();
  const std::string csv = obs::timeseries_csv(s);
  std::stringstream ss(csv);
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  EXPECT_EQ(line.substr(0, 10), "t0_s,t1_s,");
  const std::size_t cols =
      static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  std::size_t rows = 0;
  while (std::getline(ss, line)) {
    ++rows;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) + 1, cols)
        << "row " << rows;
  }
  EXPECT_EQ(rows, s.windows.size());
}

// --- analyzer: MSER warm-up + drift gate ----------------------------------

TEST(TimeSeriesAnalyze, MserFlagsAShortWarmupCut) {
  // Cold start: 10 windows ramping up, then 40 at steady state.
  std::vector<std::uint64_t> commits;
  for (int i = 0; i < 10; ++i) commits.push_back(10 + 9 * i);
  for (int i = 0; i < 40; ++i) commits.push_back(100);

  obs::TsSeries s;
  s.base_window_s = s.window_s = 1.0;
  s.nodes = 1;
  s.end = static_cast<double>(commits.size());
  s.windows.resize(commits.size());
  for (std::size_t i = 0; i < commits.size(); ++i) {
    s.windows[i].commits = commits[i];
    s.windows[i].nodes.resize(1);
  }

  s.stats_start = 2.0;  // cuts into the ramp
  const obs::TsReport bad = obs::analyze_timeseries(s);
  EXPECT_FALSE(bad.warmup_safe);
  EXPECT_GT(bad.mser_warmup_s, 2.0);
  EXPECT_LE(bad.mser_warmup_s, 11.0);  // lands at the end of the ramp

  s.stats_start = 12.0;  // comfortably past it
  const obs::TsReport good = obs::analyze_timeseries(s);
  EXPECT_TRUE(good.warmup_safe);
  // The steady tail itself must not read as drift.
  EXPECT_FALSE(good.drifting);
  EXPECT_EQ(good.meas_windows, 38u);
}

TEST(TimeSeriesAnalyze, DriftGateFiresOnTrendNotOnNoise) {
  // Steady with mild alternation: no drift.
  std::vector<std::uint64_t> steady;
  for (int i = 0; i < 60; ++i) {
    steady.push_back(100 + (i % 2 ? 2 : 0));
  }
  obs::TsSeries s;
  s.base_window_s = s.window_s = 1.0;
  s.nodes = 1;
  s.stats_start = 0.0;
  s.end = 60.0;
  s.windows.resize(steady.size());
  for (std::size_t i = 0; i < steady.size(); ++i) {
    s.windows[i].commits = steady[i];
    s.windows[i].nodes.resize(1);
  }
  const obs::TsReport ok = obs::analyze_timeseries(s);
  EXPECT_FALSE(ok.drifting);
  EXPECT_GE(ok.throughput.batches, 4);

  // Strong monotone throughput decay: the gate must fire.
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    s.windows[i].commits = 200 - 3 * i;
  }
  const obs::TsReport drift = obs::analyze_timeseries(s);
  EXPECT_TRUE(drift.drifting);
  EXPECT_TRUE(drift.throughput.drifting);
  EXPECT_LT(drift.throughput.slope_per_s, 0.0);
  EXPECT_GT(std::abs(drift.throughput.t_stat), 3.5);

  // The report and the verdict line are deterministic and agree.
  const std::string rep = obs::format_ts_report(s, drift);
  EXPECT_EQ(rep, obs::format_ts_report(s, drift));
  EXPECT_NE(rep.find("DRIFTING"), std::string::npos);
}

TEST(TimeSeriesAnalyze, ShortSeriesIsInconclusiveNotDrifting) {
  obs::TsSeries s;
  s.base_window_s = s.window_s = 1.0;
  s.nodes = 1;
  s.end = 3.0;
  s.windows.resize(3);
  for (auto& w : s.windows) {
    w.commits = 10;
    w.nodes.resize(1);
  }
  const obs::TsReport r = obs::analyze_timeseries(s);
  EXPECT_EQ(r.throughput.batches, 0);
  EXPECT_FALSE(r.drifting);
}

// --- System integration ---------------------------------------------------

// Recording through ObsConfig must not move a single metric — the recorder
// owns no scheduler events, so the schedule is untouched.
TEST(TimeSeriesSystem, RecorderOnOffMetricsIdentical) {
  const RunResult off = run_debit_credit(small_system());
  SystemConfig cfg = small_system();
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window = 0.05;
  const RunResult on = run_debit_credit(cfg);

  EXPECT_EQ(on.commits, off.commits);
  EXPECT_EQ(on.aborts, off.aborts);
  EXPECT_DOUBLE_EQ(on.throughput, off.throughput);
  EXPECT_DOUBLE_EQ(on.resp_ms, off.resp_ms);
  EXPECT_DOUBLE_EQ(on.resp_p95_ms, off.resp_p95_ms);
  EXPECT_DOUBLE_EQ(on.cpu_util, off.cpu_util);

  // The whole detail dump matches.
  ASSERT_TRUE(on.telemetry && off.telemetry);
  ASSERT_EQ(on.telemetry->detail.size(), off.telemetry->detail.size());
  for (std::size_t i = 0; i < on.telemetry->detail.size(); ++i) {
    const auto& a = on.telemetry->detail[i];
    const auto& b = off.telemetry->detail[i];
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second) << a.first;
  }

  ASSERT_TRUE(on.telemetry->timeseries);
  EXPECT_FALSE(off.telemetry->timeseries);
  std::uint64_t ts_commits = 0;
  for (const obs::TsWindow& w : on.telemetry->timeseries->windows) {
    ts_commits += w.commits;
  }
  // The series spans t=0, so its commit total covers warm-up too.
  EXPECT_GE(ts_commits, on.commits);
}

// The acceptance contract: the v1 document is identical at any --jobs on a
// shipped spec. Every point of the sweep records, so the pooled run has
// recorders live on several threads at once.
TEST(TimeSeriesSystem, DocumentIdenticalAtAnyJobCount) {
  const std::string path =
      std::string(GEMSD_SOURCE_DIR) + "/specs/fig_4_1.ini";
  if (!std::filesystem::exists(path)) GTEST_SKIP() << "specs/ not reachable";
  const SpecDoc doc = parse_spec_doc_file(path);
  ASSERT_GE(doc.runs.size(), 3u);

  std::vector<SystemConfig> cfgs;
  for (std::size_t i = 0; i < 3; ++i) {
    SystemConfig cfg = doc.runs[i].cfg;
    cfg.warmup = 0.1;
    cfg.measure = 0.4;
    cfg.obs.timeseries = true;
    cfg.obs.timeseries_window = 0.05;
    cfgs.push_back(cfg);
  }
  auto documents = [&](int jobs) {
    std::vector<std::string> out;
    for (const RunResult& r : SweepRunner(jobs).run_debit_credit(cfgs)) {
      EXPECT_TRUE(r.telemetry && r.telemetry->timeseries);
      out.push_back(r.telemetry && r.telemetry->timeseries
                        ? obs::timeseries_json(*r.telemetry->timeseries, {})
                        : std::string());
    }
    return out;
  };

  const std::vector<std::string> serial = documents(1);
  ASSERT_EQ(serial.size(), cfgs.size());
  EXPECT_FALSE(serial[0].empty());
  EXPECT_EQ(documents(4), serial);
}

// --- warm-up defaults (satellite) -----------------------------------------

// The single source of truth is SystemConfig::warmup = 5 s; BenchOptions
// mirrors it, --quick lowers it to 2 s (measure 6 s), and later flags win in
// either direction. Pinned so the two defaults can't silently diverge again.
TEST(TimeSeriesWarmup, DefaultsAgreeAndQuickOverridesBothWays) {
  EXPECT_DOUBLE_EQ(SystemConfig{}.warmup, 5.0);
  EXPECT_DOUBLE_EQ(BenchOptions{}.warmup, 5.0);
  EXPECT_DOUBLE_EQ(BenchOptions{}.measure, 20.0);

  BenchOptions quick;
  EXPECT_EQ(try_parse_bench_args({"--quick"}, quick), "");
  EXPECT_DOUBLE_EQ(quick.warmup, 2.0);
  EXPECT_DOUBLE_EQ(quick.measure, 6.0);

  BenchOptions restored;
  EXPECT_EQ(try_parse_bench_args({"--quick", "--warmup=5"}, restored), "");
  EXPECT_DOUBLE_EQ(restored.warmup, 5.0);  // later flag wins
  EXPECT_DOUBLE_EQ(restored.measure, 6.0);

  BenchOptions overridden;
  EXPECT_EQ(try_parse_bench_args({"--warmup=1", "--quick"}, overridden), "");
  EXPECT_DOUBLE_EQ(overridden.warmup, 2.0);  // --quick came later
  EXPECT_DOUBLE_EQ(overridden.measure, 6.0);
}

}  // namespace

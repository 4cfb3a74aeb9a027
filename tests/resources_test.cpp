// Operational-analysis layer tests (obs/resources.hpp, --resources): the
// sim::Resource counters at the station level (arrivals symmetry, finite
// stats at the reset instant), the operational laws as exact identities on
// hand-driven D/D/1 and seeded M/M/1 stations (Little, utilization, flow
// balance — to near machine precision, mid-queue included), the bottleneck
// ranking and asymptotic throughput bound, the gemsd.resources.v1 document
// (schema, byte-exact round trip), per-shard gating in --compare, and the
// two contracts the layer rests on — metrics untouched with the recorder on
// or off, and the exported document identical at any --jobs on a shipped
// spec. Suite names start with "Resource" so the TSan CI job covers the
// sweep-pool path.
#include <gtest/gtest.h>

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
#include "core/system.hpp"
#include "obs/analyze.hpp"
#include "obs/json.hpp"
#include "obs/resources.hpp"
#include "obs/telemetry.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace {

using namespace gemsd;

// --- station counters (satellite: reset-instant NaN + arrivals) -----------

// At the instant of a reset the horizon is zero: every ratio must come back
// as a finite 0, never NaN/inf (these feed JSON, which has no NaN literal).
TEST(ResourceStation, StatsAreFiniteAtTheResetInstant) {
  sim::Scheduler s;
  sim::Resource r(s, 2, "station");

  // Brand-new station at t=0: zero horizon, zero everything.
  EXPECT_EQ(r.utilization(), 0.0);
  EXPECT_EQ(r.mean_queue_length(), 0.0);
  EXPECT_TRUE(std::isfinite(r.utilization()));
  EXPECT_TRUE(std::isfinite(r.mean_queue_length()));

  // Accrue some usage, then reset and re-read without advancing time.
  s.spawn([](sim::Scheduler&, sim::Resource& rs) -> sim::Task<void> {
    co_await rs.use(1.0);
  }(s, r));
  s.run_until(2.0);
  EXPECT_GT(r.busy_time(), 0.0);

  r.reset_stats();
  EXPECT_EQ(r.utilization(), 0.0);
  EXPECT_EQ(r.mean_queue_length(), 0.0);
  EXPECT_TRUE(std::isfinite(r.utilization()));
  EXPECT_TRUE(std::isfinite(r.mean_queue_length()));
  EXPECT_EQ(r.arrivals(), 0u);
  EXPECT_EQ(r.completions(), 0u);
  EXPECT_EQ(r.busy_time(), 0.0);
  EXPECT_EQ(r.queue_integral(), 0.0);
  EXPECT_EQ(r.queue_max(), 0u);

  // A row derived over the zero-width horizon is all finite zeros too.
  const obs::ResourceRow row =
      obs::resource_row(r, "station", "cpu", 0, 0.0, 0, nullptr);
  EXPECT_TRUE(std::isfinite(row.utilization));
  EXPECT_TRUE(std::isfinite(row.queue_mean));
  EXPECT_TRUE(std::isfinite(row.throughput));
  EXPECT_TRUE(std::isfinite(row.service_s));
  EXPECT_TRUE(std::isfinite(row.demand_s));
  EXPECT_EQ(row.utilization, 0.0);
}

// arrivals() ticks on every acquisition — immediate grants and enqueues
// alike — and is symmetric to completions() once the station drains.
TEST(ResourceStation, ArrivalsCountGrantsAndEnqueuesSymmetrically) {
  sim::Scheduler s;
  sim::Resource r(s, 1, "station");
  for (int i = 0; i < 5; ++i) {
    s.spawn([](sim::Scheduler&, sim::Resource& rs) -> sim::Task<void> {
      co_await rs.use(1.0);  // cap 1: job 0 grants immediately, 1..4 queue
    }(s, r));
  }
  s.run_until(0.0);  // all five have arrived, none has finished
  EXPECT_EQ(r.arrivals(), 5u);
  EXPECT_EQ(r.completions(), 0u);
  EXPECT_EQ(r.in_system(), 5u);
  EXPECT_EQ(r.queue_max(), 4u);

  s.run_until(10.0);  // serial service: drains by t=5
  EXPECT_EQ(r.arrivals(), 5u);
  EXPECT_EQ(r.completions(), 5u);
  EXPECT_EQ(r.in_system(), 0u);
  // Exact Little identity on the drained station: jobs 1..4 waited
  // 1+2+3+4 = 10 waiter-seconds, and that IS the queue-length integral.
  EXPECT_DOUBLE_EQ(r.waited_time(), 10.0);
  EXPECT_DOUBLE_EQ(r.queue_integral(), 10.0);
  EXPECT_EQ(r.pending_wait_time(), 0.0);
}

// Flow balance across a stats reset: in_system_at_reset() carries the jobs
// that straddle the horizon start, closing
//   arrivals - completions == in_system_end - in_system_start.
TEST(ResourceStation, FlowBalanceClosesAcrossAReset) {
  sim::Scheduler s;
  sim::Resource r(s, 1, "station");
  for (int i = 0; i < 3; ++i) {
    s.spawn([](sim::Scheduler&, sim::Resource& rs) -> sim::Task<void> {
      co_await rs.use(2.0);
    }(s, r));
  }
  s.run_until(1.0);  // one in service, two queued
  r.reset_stats();
  EXPECT_EQ(r.in_system_at_reset(), 3u);
  EXPECT_EQ(r.arrivals(), 0u);

  s.run_until(10.0);  // the three straddlers complete, nothing new arrives
  const std::int64_t flow = static_cast<std::int64_t>(r.arrivals()) -
                            static_cast<std::int64_t>(r.completions());
  const std::int64_t delta = static_cast<std::int64_t>(r.in_system()) -
                             static_cast<std::int64_t>(r.in_system_at_reset());
  EXPECT_EQ(flow, delta);  // 0 - 3 == 0 - 3
}

// --- law fixtures (satellite: D/D/1 exact, M/M/1 to machine precision) ----

sim::Task<void> dd1_source(sim::Scheduler& s, sim::Resource& r, int jobs,
                           double interarrival, double service) {
  for (int i = 0; i < jobs; ++i) {
    s.spawn([](sim::Scheduler&, sim::Resource& rs,
               double sv) -> sim::Task<void> { co_await rs.use(sv); }(
        s, r, service));
    co_await s.delay(interarrival);
  }
}

obs::ResourceSet one_row_set(const sim::Resource& r, double start, double end,
                             std::uint64_t commits) {
  obs::ResourceSet set;
  set.stats_start = start;
  set.end = end;
  set.commits = commits;
  set.throughput =
      end > start ? static_cast<double>(commits) / (end - start) : 0.0;
  set.rows.push_back(obs::resource_row(r, r.name(), "cpu", 0, end - start,
                                       commits, nullptr));
  return set;
}

// Underloaded D/D/1 (interarrival 2 s, service 1 s): no queueing ever, and
// every field has a closed-form exact value.
TEST(ResourceLaws, UnderloadedDD1IsExact) {
  sim::Scheduler s;
  sim::Resource r(s, 1, "dd1");
  s.spawn(dd1_source(s, r, 10, 2.0, 1.0));
  s.run_until(20.0);  // last job arrives at 18, finishes at 19

  const obs::ResourceSet set = one_row_set(r, 0.0, 20.0, 10);
  const obs::ResourceRow& row = set.rows[0];
  EXPECT_EQ(row.arrivals, 10u);
  EXPECT_EQ(row.completions, 10u);
  EXPECT_DOUBLE_EQ(row.busy_s, 10.0);
  EXPECT_DOUBLE_EQ(row.utilization, 0.5);
  EXPECT_DOUBLE_EQ(row.throughput, 0.5);
  EXPECT_DOUBLE_EQ(row.service_s, 1.0);
  EXPECT_DOUBLE_EQ(row.demand_s, 1.0);
  EXPECT_DOUBLE_EQ(row.saturation_tps, 1.0);
  EXPECT_DOUBLE_EQ(row.queue_integral_s, 0.0);
  EXPECT_DOUBLE_EQ(row.waited_s, 0.0);
  EXPECT_EQ(row.queue_max, 0u);
  EXPECT_TRUE(obs::check_resource_laws(set, 1e-12).empty());
}

// Overloaded D/D/1 (interarrival 1 s, service 3 s), snapshotted with jobs
// still queued: the Little identity must hold *mid-queue*, pending included.
TEST(ResourceLaws, OverloadedDD1HoldsMidQueue) {
  sim::Scheduler s;
  sim::Resource r(s, 1, "dd1sat");
  s.spawn(dd1_source(s, r, 6, 1.0, 3.0));
  s.run_until(7.5);  // two served (t=3, 6), one in service, three queued

  EXPECT_EQ(r.completions(), 2u);
  EXPECT_EQ(r.in_system(), 4u);
  EXPECT_GT(r.pending_wait_time(), 0.0);
  EXPECT_DOUBLE_EQ(r.queue_integral(),
                   r.waited_time() + r.pending_wait_time());

  const obs::ResourceSet set = one_row_set(r, 0.0, 7.5, 2);
  EXPECT_TRUE(obs::check_resource_laws(set, 1e-12).empty());
  EXPECT_DOUBLE_EQ(set.rows[0].utilization, 1.0);  // never idle since t=0
}

sim::Task<void> mm1_source(sim::Scheduler& s, sim::Rng& rng, sim::Resource& r,
                           double lambda, double mean_service) {
  for (;;) {
    co_await s.delay(rng.exponential(1.0 / lambda));
    s.spawn([](sim::Scheduler&, sim::Rng& rg, sim::Resource& rs,
               double ms) -> sim::Task<void> {
      co_await rs.use(rg.exponential(ms));
    }(s, rng, r, mean_service));
  }
}

// Seeded M/M/1 at rho = 0.8: thousands of stochastic arrivals, snapshot
// taken mid-flight — the operational laws are *identities*, so they hold to
// near machine precision regardless of the randomness, jobs in queue and a
// measurement horizon that starts mid-run (straddling waiters) included.
TEST(ResourceLaws, SeededMM1IdentitiesHoldToMachinePrecision) {
  sim::Scheduler s;
  sim::Rng rng(7);
  sim::Resource r(s, 1, "mm1");
  s.spawn(mm1_source(s, rng, r, 80.0, 0.01));

  s.run_until(10.0);
  r.reset_stats();  // horizon starts mid-run, with waiters straddling it
  s.run_until(60.0);

  EXPECT_GT(r.completions(), 3000u);
  const obs::ResourceSet set = one_row_set(r, 10.0, 60.0, r.completions());
  const auto violations = obs::check_resource_laws(set, 1e-9);
  EXPECT_TRUE(violations.empty())
      << violations.front().resource << ": " << violations.front().what;
  // Sanity: the station really was loaded when we looked.
  EXPECT_GT(set.rows[0].utilization, 0.6);
  EXPECT_GT(set.rows[0].queue_integral_s, 0.0);
}

// Corrupted values name the offending station and the broken law.
TEST(ResourceLaws, CorruptionNamesTheStationAndLaw) {
  sim::Scheduler s;
  sim::Resource r(s, 1, "victim");
  s.spawn(dd1_source(s, r, 4, 2.0, 1.0));
  s.run_until(10.0);
  obs::ResourceSet set = one_row_set(r, 0.0, 10.0, 4);
  ASSERT_TRUE(obs::check_resource_laws(set).empty());

  obs::ResourceSet bad = set;
  bad.rows[0].busy_s = 99.0;  // > capacity * horizon: hard invariant
  const auto v1 = obs::check_resource_laws(bad);
  ASSERT_FALSE(v1.empty());
  EXPECT_EQ(v1.front().resource, "victim");

  bad = set;
  bad.rows[0].queue_integral_s += 1.0;  // breaks the Little identity
  bool little = false;
  for (const auto& v : obs::check_resource_laws(bad)) {
    if (v.what.find("Little") != std::string::npos) little = true;
  }
  EXPECT_TRUE(little);

  bad = set;
  bad.rows[0].arrivals += 1;  // breaks flow balance
  bool flow = false;
  for (const auto& v : obs::check_resource_laws(bad)) {
    if (v.what.find("flow balance") != std::string::npos) flow = true;
  }
  EXPECT_TRUE(flow);
}

// --- bottleneck analyzer ---------------------------------------------------

obs::ResourceRow station(const std::string& name, const std::string& kind,
                         int cap, double busy, std::uint64_t completions,
                         double horizon, std::uint64_t commits) {
  obs::ResourceRow r;
  r.name = name;
  r.kind = kind;
  r.capacity = cap;
  r.arrivals = completions;
  r.completions = completions;
  r.busy_s = busy;
  obs::derive_resource_row(r, horizon, commits);
  return r;
}

obs::ResourceSet synthetic_set() {
  // 10 s horizon, 1000 commits, X = 100/s. The "gem" station is nearly
  // saturated (U = 0.95, demand 9.5 ms -> saturates at 105.3/s); cpu and
  // disk trail it.
  obs::ResourceSet s;
  s.stats_start = 0.0;
  s.end = 10.0;
  s.commits = 1000;
  s.throughput = 100.0;
  s.rows.push_back(station("cpu.node0", "cpu", 4, 16.0, 20000, 10.0, 1000));
  s.rows.push_back(station("gem", "gem", 1, 9.5, 8000, 10.0, 1000));
  s.rows.push_back(station("disk.DB.arms", "disk", 8, 8.0, 500, 10.0, 1000));
  // MPL slots held 96% of the time: tops the ranking, but it is admission
  // control — the bottleneck pick must skip it and name the gem instead.
  s.rows.push_back(station("mpl.node0", "mpl", 50, 480.0, 1000, 10.0, 1000));
  return s;
}

// The saturated station ranks first among physical stations, is named the
// bottleneck, and sets the asymptotic bound X_max = cap / demand.
TEST(ResourceBottleneck, SaturatedStationRanksFirstAndBoundsThroughput) {
  const obs::ResourceSet s = synthetic_set();
  const obs::BottleneckReport rep = obs::analyze_bottleneck(s);

  ASSERT_FALSE(rep.ranking.empty());
  ASSERT_GE(rep.bottleneck, 0);
  EXPECT_EQ(s.rows[rep.bottleneck].name, "gem");
  EXPECT_DOUBLE_EQ(s.rows[rep.bottleneck].utilization, 0.95);
  // X_max = min_i cap/demand. Since sat_i = commits/(util_i * H) on a shared
  // horizon, the top-utilization station is always the binding bound — here
  // the 96%-held slot pool (50 / 0.48 s), just under the gem's 105.26/s.
  ASSERT_GE(rep.x_max_station, 0);
  EXPECT_EQ(s.rows[rep.x_max_station].name, "mpl.node0");
  EXPECT_DOUBLE_EQ(rep.x_max, 50.0 / 0.48);
  EXPECT_TRUE(rep.within_bound);  // 100 <= 104.17

  // MPL pools are admission control: never the bottleneck, reported apart.
  EXPECT_NE(s.rows[rep.bottleneck].kind, "mpl");
  ASSERT_GE(rep.admission_limited, 0);
  EXPECT_EQ(s.rows[rep.admission_limited].kind, "mpl");

  // What-if x1.5 pushes the gem past saturation; throughput caps at X_max.
  ASSERT_EQ(rep.whatifs.size(), 2u);
  EXPECT_TRUE(rep.whatifs[0].saturated);
  EXPECT_DOUBLE_EQ(rep.whatifs[0].throughput, rep.x_max);

  // Splitting the bottleneck K ways: rho halves each doubling, queue
  // collapses superlinearly (the shards_glt story in closed form).
  ASSERT_EQ(rep.splits.size(), 4u);
  EXPECT_DOUBLE_EQ(rep.splits[0].rho, 0.95);
  EXPECT_DOUBLE_EQ(rep.splits[1].rho, 0.475);
  EXPECT_GT(rep.splits[0].queue_total, 10 * rep.splits[1].queue_total);

  // The report is deterministic and names the bottleneck.
  const std::string text = obs::format_bottleneck_report(s, rep, {});
  EXPECT_EQ(text, obs::format_bottleneck_report(s, rep, {}));
  EXPECT_NE(text.find("bottleneck: gem"), std::string::npos);
  EXPECT_NE(text.find("OK: measured <= bound"), std::string::npos);
}

// A doctored snapshot claiming X above the asymptotic bound is flagged: the
// bound is a theorem on consistent data, so violation means corruption.
TEST(ResourceBottleneck, MeasuredAboveBoundIsFlagged) {
  obs::ResourceSet s = synthetic_set();
  s.throughput = 200.0;  // impossible: gem saturates at ~105/s
  const obs::BottleneckReport rep = obs::analyze_bottleneck(s);
  EXPECT_FALSE(rep.within_bound);
  EXPECT_NE(obs::format_bottleneck_report(s, rep, {}).find("VIOLATED"),
            std::string::npos);
}

// --- system integration ----------------------------------------------------

SystemConfig small_system() {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 2;
  cfg.warmup = 0.1;
  cfg.measure = 0.4;
  return cfg;
}

// Recording through ObsConfig must not move a single metric — the recorder
// owns no scheduler events, so the schedule is untouched.
TEST(ResourceSystem, RecorderOnOffMetricsIdentical) {
  const RunResult off = run_debit_credit(small_system());
  SystemConfig cfg = small_system();
  cfg.obs.resources = true;
  const RunResult on = run_debit_credit(cfg);

  EXPECT_EQ(on.commits, off.commits);
  EXPECT_EQ(on.aborts, off.aborts);
  EXPECT_DOUBLE_EQ(on.throughput, off.throughput);
  EXPECT_DOUBLE_EQ(on.resp_ms, off.resp_ms);
  EXPECT_DOUBLE_EQ(on.resp_p95_ms, off.resp_p95_ms);
  EXPECT_DOUBLE_EQ(on.cpu_util, off.cpu_util);

  ASSERT_TRUE(on.telemetry && off.telemetry);
  ASSERT_EQ(on.telemetry->detail.size(), off.telemetry->detail.size());
  for (std::size_t i = 0; i < on.telemetry->detail.size(); ++i) {
    const auto& a = on.telemetry->detail[i];
    const auto& b = off.telemetry->detail[i];
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second) << a.first;
  }

  ASSERT_TRUE(on.telemetry->resources);
  EXPECT_FALSE(off.telemetry->resources);

  // The snapshot covers every station family and reconciles.
  const obs::ResourceSet& set = *on.telemetry->resources;
  EXPECT_GE(set.find("cpu.node0"), 0);
  EXPECT_GE(set.find("cpu.node1"), 0);
  EXPECT_GE(set.find("mpl.node0"), 0);
  EXPECT_GE(set.find("gem"), 0);
  EXPECT_GE(set.find("net"), 0);
  EXPECT_GE(set.find("lock"), 0);
  const auto violations = obs::check_resource_laws(set);
  EXPECT_TRUE(violations.empty())
      << violations.front().resource << ": " << violations.front().what;
}

// Per-shard rows surface in RunResult (satellite: results.v1 "gem_shards").
TEST(ResourceSystem, PerShardRowsMatchShardCount) {
  SystemConfig cfg = small_system();
  const RunResult one = run_debit_credit(cfg);
  ASSERT_EQ(one.gem_shards.size(), 1u);

  cfg.gem.shards = 2;
  cfg.obs.resources = true;
  const RunResult two = run_debit_credit(cfg);
  ASSERT_EQ(two.gem_shards.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& gs : two.gem_shards) total += gs.completions;
  EXPECT_GT(total, 0u);
  ASSERT_TRUE(two.telemetry && two.telemetry->resources);
  const obs::ResourceSet& set = *two.telemetry->resources;
  const int s0 = set.find("gem.shard0");
  const int s1 = set.find("gem.shard1");
  ASSERT_GE(s0, 0);
  ASSERT_GE(s1, 0);
  // RunResult rows and resource rows read the same stations.
  EXPECT_DOUBLE_EQ(two.gem_shards[0].util, set.rows[s0].utilization);
  EXPECT_DOUBLE_EQ(two.gem_shards[1].util, set.rows[s1].utilization);
  EXPECT_EQ(two.gem_shards[0].completions, set.rows[s0].completions);
}

// The acceptance contract: the v1 document is identical at any --jobs on a
// shipped spec. Every point of the sweep records, so the pooled run has
// recorders live on several threads at once.
TEST(ResourceSystem, DocumentIdenticalAtAnyJobCount) {
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
    cfg.obs.resources = true;
    cfgs.push_back(cfg);
  }
  auto documents = [&](int jobs) {
    std::vector<std::string> out;
    for (const RunResult& r : SweepRunner(jobs).run_debit_credit(cfgs)) {
      EXPECT_TRUE(r.telemetry && r.telemetry->resources);
      out.push_back(r.telemetry && r.telemetry->resources
                        ? obs::resources_json(*r.telemetry->resources, {})
                        : std::string());
    }
    return out;
  };

  const std::vector<std::string> serial = documents(1);
  ASSERT_EQ(serial.size(), cfgs.size());
  EXPECT_FALSE(serial[0].empty());
  EXPECT_EQ(documents(4), serial);
}

// --- document / schema -----------------------------------------------------

obs::ResourceSet sample_set() {
  SystemConfig cfg = small_system();
  cfg.obs.resources = true;
  const RunResult r = run_debit_credit(cfg);
  EXPECT_TRUE(r.telemetry && r.telemetry->resources);
  return *r.telemetry->resources;
}

TEST(ResourceJson, ValidatesAgainstCommittedSchema) {
  const obs::ResourceSet s = sample_set();
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(
      obs::resources_json(s, {{"git", "\"test\""}}), doc, err))
      << err;

  std::ifstream f(std::string(GEMSD_SOURCE_DIR) +
                  "/schemas/resources.schema.json");
  ASSERT_TRUE(f.good()) << "schemas/ not reachable";
  std::stringstream ss;
  ss << f.rdbuf();
  obs::JsonValue schema;
  ASSERT_TRUE(obs::json_parse(ss.str(), schema, err)) << err;
  std::vector<std::string> problems;
  EXPECT_TRUE(obs::json_schema_validate(schema, doc, problems))
      << (problems.empty() ? "" : problems.front());
}

TEST(ResourceJson, RoundTripIsExact) {
  const obs::ResourceSet s = sample_set();
  ASSERT_FALSE(s.rows.empty());
  const std::string text = obs::resources_json(s, {});
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(text, doc, err)) << err;

  obs::ResourceSet q;
  ASSERT_TRUE(obs::resources_from_json(doc, q, err)) << err;
  // Re-serialising the parsed set reproduces the document byte for byte:
  // integers are exact and doubles survive the %.12g round trip here.
  EXPECT_EQ(obs::resources_json(q, {}), text);
  EXPECT_EQ(q.rows.size(), s.rows.size());
  EXPECT_EQ(q.commits, s.commits);
  // Parsed rows still reconcile: the laws survive serialization.
  EXPECT_TRUE(obs::check_resource_laws(q).empty());

  // Rejects a non-resources document.
  obs::JsonValue bogus;
  ASSERT_TRUE(obs::json_parse("{\"schema\":\"other.v1\"}", bogus, err));
  obs::ResourceSet out;
  EXPECT_FALSE(obs::resources_from_json(bogus, out, err));
}

// --- --compare gating (satellite: per-shard rows) --------------------------

std::string sharded_results_doc(double u0, double q0, double u1, double q1) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "gemsd.results.v1");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.kv("config_hash", "abcd");
  w.kv("name", "");
  w.key("metrics");
  w.begin_object();
  w.kv("label", "GEM/NOFORCE/random");
  w.kv("resp_ms", 60.0);
  w.kv("resp_ci_ms", 1.5);
  w.kv("throughput", 1000.0);
  w.key("gem_shards");
  w.begin_array();
  for (const auto& [u, q] : {std::pair{u0, q0}, std::pair{u1, q1}}) {
    w.begin_object();
    w.kv("util", u);
    w.kv("queue_mean", q);
    w.kv("wait_ms", 0.1);
    w.kv("completions", static_cast<std::uint64_t>(1000));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  w.end_array();
  w.end_object();
  return w.take();
}

obs::JsonValue parse_doc(const std::string& s) {
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(s, doc, err)) << err;
  return doc;
}

// A shard whose utilization or queue grows past the band regresses the run
// even when the aggregates (resp, tput) are unchanged.
TEST(ResourceCompare, ShardRegressionFlagsWhenAggregatesAreQuiet) {
  const obs::JsonValue base =
      parse_doc(sharded_results_doc(0.40, 0.50, 0.40, 0.50));

  // Identical shards: quiet.
  const obs::CompareReport same = obs::compare_results(
      base, parse_doc(sharded_results_doc(0.40, 0.50, 0.40, 0.50)), 0.05);
  EXPECT_EQ(same.regressions, 0);
  ASSERT_EQ(same.deltas.size(), 1u);
  EXPECT_EQ(same.deltas[0].shard_regressions, 0);

  // One shard's queue doubles (hot shard after a hash change): flagged.
  const obs::CompareReport hot = obs::compare_results(
      base, parse_doc(sharded_results_doc(0.40, 1.00, 0.40, 0.50)), 0.05);
  EXPECT_EQ(hot.regressions, 1);
  ASSERT_EQ(hot.deltas.size(), 1u);
  EXPECT_EQ(hot.deltas[0].shard_regressions, 1);
  EXPECT_NE(obs::format_compare(hot, 0.05).find("GEM shard"),
            std::string::npos);

  // Within-band wiggle: quiet.
  const obs::CompareReport wiggle = obs::compare_results(
      base, parse_doc(sharded_results_doc(0.41, 0.51, 0.40, 0.50)), 0.05);
  EXPECT_EQ(wiggle.regressions, 0);
}

}  // namespace

// Tests for the scenario engine (src/core/scenario.*), the compiled-in
// registry, the strict bench-flag parser, and the spec export round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/fingerprint.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace gemsd {
namespace {

BenchOptions quick_opts(int max_nodes = 10) {
  BenchOptions opt;
  opt.warmup = 2.0;
  opt.measure = 6.0;
  opt.max_nodes = max_nodes;
  return opt;
}

// --- strict flag parsing (a typo must never run a sweep with defaults) ----

TEST(BenchArgs, ParsesEveryKnownFlag) {
  BenchOptions o;
  const std::string err = try_parse_bench_args(
      {"--quick", "--max-nodes=3", "--jobs=2", "--seed=7", "--csv",
       "--full", "--slow-k=3", "--metrics-json=x.json",
       "--trace=t.json", "--trace-run=1", "--trace-capacity=1024",
       "--audit", "--no-json", "--warmup=1.5", "--measure=4"},
      o);
  EXPECT_EQ(err, "");
  EXPECT_EQ(o.max_nodes, 3);
  EXPECT_EQ(o.jobs, 2);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.csv);
  EXPECT_TRUE(o.full);
  EXPECT_TRUE(o.obs.audit);
  EXPECT_TRUE(o.no_json);
  EXPECT_DOUBLE_EQ(o.warmup, 1.5);
  EXPECT_DOUBLE_EQ(o.measure, 4.0);
  EXPECT_EQ(o.obs.slow_k, 3);
  EXPECT_EQ(o.metrics_json, "x.json");
  EXPECT_EQ(o.trace_file, "t.json");
  EXPECT_EQ(o.obs.trace_capacity, 1024u);
}

TEST(BenchArgs, RejectsUnknownFlag) {
  BenchOptions o;
  const std::string err = try_parse_bench_args({"--quikc"}, o);
  EXPECT_NE(err.find("--quikc"), std::string::npos) << err;
}

TEST(BenchArgs, RejectsSpaceSeparatedValue) {
  // "--warmup 5" arrives as two argv entries; both must be rejected, not
  // silently ignored (the old parser ran the full sweep with defaults).
  BenchOptions o;
  EXPECT_NE(try_parse_bench_args({"--warmup", "5"}, o), "");
}

TEST(BenchArgs, RejectsMalformedValue) {
  BenchOptions o;
  EXPECT_NE(try_parse_bench_args({"--jobs=two"}, o), "");
  EXPECT_NE(try_parse_bench_args({"--measure=fast"}, o), "");
  // Out of int range, and a negative count that strtoull would wrap.
  EXPECT_NE(try_parse_bench_args({"--jobs=1e20"}, o), "");
  EXPECT_NE(try_parse_bench_args({"--trace-capacity=-1"}, o), "");
}

TEST(BenchArgs, UsageListsEveryFlag) {
  const std::string u = bench_usage();
  for (const char* flag :
       {"--quick", "--measure=", "--warmup=", "--max-nodes=", "--jobs=",
        "--seed=", "--full", "--csv", "--slow-k=",
        "--metrics-json=", "--no-json", "--trace=", "--trace-run=",
        "--trace-capacity=", "--audit"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  }
}

// Walks the whole table gemsd_bench and bench_kernel parse (gemsd_run's
// shared part included): every entry is in the generated usage, and a
// valid value lands in the member of the options object it is bound to.
TEST(BenchArgs, EveryTableEntryIsInTheUsageAndSetsItsMember) {
  const std::string usage = bench_usage();
  std::istringstream lines(usage);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_LE(line.size(), 80u) << line;
  }
  BenchOptions o;
  const FlagTable table = bench_flags(o);
  for (const Flag& f : table) {
    SCOPED_TRACE(f.name);
    EXPECT_NE(usage.find("  " + f.name), std::string::npos);
    std::string value;
    switch (f.kind) {
      case Flag::Kind::Switch: break;
      case Flag::Kind::Int: value = "3"; break;
      case Flag::Kind::U64: value = "7"; break;
      case Flag::Kind::Double: value = "2.5"; break;
      case Flag::Kind::Regex: value = "^lock"; break;
      case Flag::Kind::String:
      case Flag::Kind::OptFile: value = "out.json"; break;
    }
    const std::string arg = value.empty() ? f.name : f.name + "=" + value;
    ASSERT_EQ(parse_flags({arg}, table), "");
    const void* member = std::visit(
        [&](auto p) -> const void* {
          using P = decltype(p);
          if constexpr (std::is_same_v<P, std::monostate>) {
            EXPECT_TRUE(f.also) << "an entry without a member must act";
            return &o;
          } else {
            using T = std::remove_pointer_t<P>;
            if constexpr (std::is_same_v<T, bool>) {
              EXPECT_TRUE(*p);
            } else if constexpr (std::is_same_v<T, std::string>) {
              EXPECT_EQ(*p, value);
            } else {
              EXPECT_EQ(*p, static_cast<T>(std::stod(value)));
            }
            return p;
          }
        },
        f.target);
    const auto base = reinterpret_cast<std::uintptr_t>(&o);
    const auto at = reinterpret_cast<std::uintptr_t>(member);
    EXPECT_TRUE(at >= base && at < base + sizeof o) << "bound elsewhere";
  }
  // Values that run correctly get no range.
  EXPECT_EQ(try_parse_bench_args(
                {"--trace-capacity=0", "--trace-run=-5", "--jobs=-4"}, o),
            "");
}

// --- registry sanity ------------------------------------------------------

TEST(ScenarioRegistry, HoldsEveryPaperFigureAndAblation) {
  for (const char* name :
       {"table_4_1", "fig_4_1", "fig_4_2", "fig_4_3", "fig_4_4", "fig_4_5",
        "fig_4_6", "fig_4_7", "ablation_gem_speed", "ablation_msg_cost",
        "ablation_read_opt", "ablation_force_writes", "ablation_gem_msg",
        "ablation_gem_cache", "ablation_gem_auth", "ablation_update_locks",
        "related_lock_engine", "availability", "ablation_group_commit"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, NamesUniqueAndDocumented) {
  std::set<std::string> names;
  for (const Scenario& sc : scenario_registry()) {
    EXPECT_TRUE(names.insert(sc.name).second) << "duplicate " << sc.name;
    EXPECT_FALSE(sc.caption.empty()) << sc.name;
    EXPECT_FALSE(sc.doc.empty()) << sc.name;
    if (!sc.report) {
      EXPECT_GT(scenario_cell_count(sc, quick_opts()), 0u) << sc.name;
    }
  }
}

TEST(ScenarioRegistry, GridSizesMatchTheRetiredBenches) {
  const BenchOptions opt = quick_opts();
  EXPECT_EQ(scenario_cell_count(*find_scenario("fig_4_1"), opt), 24u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("fig_4_3"), opt), 48u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("fig_4_5"), opt), 96u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("fig_4_6"), opt), 32u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("fig_4_7"), opt), 20u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("availability"), opt), 2u);
  EXPECT_EQ(scenario_cell_count(*find_scenario("table_4_1"), opt), 0u);
}

// --- plan expansion: groups, filtering, clamping --------------------------

TEST(ScenarioPlan, GroupsPartitionTheCellsContiguously) {
  // fig_4_5 groups by buffer x update: 4 groups of 24 runs each — the
  // engine-owned replacement for the old per_strategy index arithmetic.
  const Scenario& sc = *find_scenario("fig_4_5");
  const ScenarioPlan plan = build_scenario_plan(sc, quick_opts());
  ASSERT_EQ(plan.groups.size(), 4u);
  ASSERT_EQ(plan.cells.size(), 96u);
  std::size_t expect_begin = 0;
  for (const auto& g : plan.groups) {
    EXPECT_EQ(g.begin, expect_begin);
    EXPECT_EQ(g.end - g.begin, 24u);
    EXPECT_FALSE(g.title.empty());
    expect_begin = g.end;
  }
  EXPECT_EQ(expect_begin, plan.cells.size());
  EXPECT_NE(plan.groups[0].title.find("buffer 200"), std::string::npos);
  EXPECT_NE(plan.groups[3].title.find("FORCE"), std::string::npos);
}

TEST(ScenarioPlan, MaxNodesFiltersNodeAxes) {
  const Scenario& sc = *find_scenario("fig_4_1");
  const ScenarioPlan plan = build_scenario_plan(sc, quick_opts(3));
  EXPECT_EQ(plan.cells.size(), 2u * 2u * 3u);  // n in {1,2,3}
  for (const auto& c : plan.cells) EXPECT_LE(c.cfg.nodes, 3);
}

TEST(ScenarioPlan, MaxNodesClampsClampAxes) {
  // ablation_msg_cost runs at n = min(10, max_nodes), not a filtered sweep.
  const Scenario& sc = *find_scenario("ablation_msg_cost");
  const ScenarioPlan plan = build_scenario_plan(sc, quick_opts(3));
  ASSERT_EQ(plan.cells.size(), 5u);
  for (const auto& c : plan.cells) EXPECT_EQ(c.cfg.nodes, 3);
}

TEST(ScenarioPlan, CellsCarryLabelsParamsAndExtras) {
  const Scenario& sc = *find_scenario("ablation_update_locks");
  const ScenarioPlan plan = build_scenario_plan(sc, quick_opts());
  ASSERT_EQ(plan.cells.size(), 12u);
  EXPECT_EQ(plan.cells.front().label, "GEM hot=4 R->W");
  // params: [coupling(unused), hot_pages, update-mode flag]
  ASSERT_EQ(plan.cells.front().params.size(), 3u);
  EXPECT_EQ(plan.cells.front().params[1], 4.0);
  EXPECT_EQ(plan.cells.back().params[1], 256.0);
  EXPECT_EQ(plan.cells.back().params[2], 1.0);
}

// --- golden: fig_4_1 against the committed baseline shape -----------------

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(ScenarioGolden, Fig41QuickMatchesCommittedBaselineShape) {
  const std::string baseline =
      slurp(std::string(GEMSD_SOURCE_DIR) + "/results/BENCH_fig_4_1.json");
  ASSERT_FALSE(baseline.empty()) << "committed baseline not readable";

  // The committed baseline was produced at --quick, seed 42. Every cell the
  // registry expands to must appear in it, same configs in the same order —
  // config hashes cover nodes/routing/update/buffer AND warmup/measure/seed.
  const Scenario& sc = *find_scenario("fig_4_1");
  const ScenarioPlan plan = build_scenario_plan(sc, quick_opts());
  ASSERT_EQ(plan.cells.size(), 24u);
  std::size_t pos = 0;
  for (const auto& cell : plan.cells) {
    const std::string needle =
        "\"config_hash\":\"" + obs::config_hash_hex(cell.cfg) + "\"";
    const std::size_t found = baseline.find(needle, pos);
    ASSERT_NE(found, std::string::npos)
        << cell.label << " missing/out of order in committed baseline";
    pos = found + needle.size();
  }
}

TEST(ScenarioGolden, Fig41ParallelRunsAreBitIdenticalToSerial) {
  BenchOptions opt = quick_opts(2);  // 8 runs: routing x update x n in {1,2}
  const Scenario& sc = *find_scenario("fig_4_1");
  opt.jobs = 1;
  const ScenarioResult serial = run_scenario(sc, opt);
  opt.jobs = 2;
  const ScenarioResult parallel = run_scenario(sc, opt);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());

  // Byte-compare the full results documents (all metrics, all runs).
  std::ostringstream a, b;
  for (const ScenarioResult* res : {&serial, &parallel}) {
    std::ostringstream& out = res == &serial ? a : b;
    for (const BenchRun& r : res->runs) {
      out << r.result.label() << " " << r.result.resp_ms << " "
          << r.result.throughput << " " << r.result.commits << " "
          << r.result.deadlocks << " " << r.result.messages_per_txn << "\n";
    }
  }
  EXPECT_EQ(a.str(), b.str());
}

// --- spec export round trip -----------------------------------------------

TEST(ScenarioExport, EveryExportableScenarioRoundTrips) {
  // export_scenario_spec self-verifies: it parses its own output and
  // requires config_json equality per run — a throw here is a registry/spec
  // format drift.
  const BenchOptions opt = quick_opts();
  for (const Scenario& sc : scenario_registry()) {
    if (!sc.exportable) continue;
    std::string text;
    ASSERT_NO_THROW(text = export_scenario_spec(sc, opt)) << sc.name;
    std::istringstream in(text);
    const SpecDoc doc = parse_spec_doc(in);
    EXPECT_EQ(doc.scenario, sc.name);
    EXPECT_EQ(doc.runs.size(), scenario_cell_count(sc, opt)) << sc.name;
  }
}

TEST(ScenarioExport, NonExportableScenariosThrow) {
  EXPECT_THROW(
      export_scenario_spec(*find_scenario("availability"), quick_opts()),
      std::runtime_error);
  EXPECT_THROW(
      export_scenario_spec(*find_scenario("table_4_1"), quick_opts()),
      std::runtime_error);
}

TEST(ScenarioExport, SpecRunMetricsMatchRegistryRun) {
  // The gemsd_run execution path (fresh config from the parsed spec) must
  // reproduce the in-registry run bit-for-bit: same response times, same
  // commit counts, same everything.
  BenchOptions opt = quick_opts(2);
  const Scenario& sc = *find_scenario("fig_4_1");
  const ScenarioResult reg = run_scenario(sc, opt);

  const std::string text = export_scenario_spec(sc, opt);
  std::istringstream in(text);
  const SpecDoc doc = parse_spec_doc(in);
  ASSERT_EQ(doc.runs.size(), reg.runs.size());
  for (std::size_t i = 0; i < doc.runs.size(); ++i) {
    SystemConfig cfg = doc.runs[i].cfg;
    cfg.obs = reg.runs[i].config.obs;  // same telemetry settings
    const RunResult r = run_debit_credit(cfg);
    EXPECT_DOUBLE_EQ(r.resp_ms, reg.runs[i].result.resp_ms) << i;
    EXPECT_DOUBLE_EQ(r.throughput, reg.runs[i].result.throughput) << i;
    EXPECT_EQ(r.commits, reg.runs[i].result.commits) << i;
    EXPECT_DOUBLE_EQ(r.messages_per_txn,
                     reg.runs[i].result.messages_per_txn)
        << i;
  }
}

TEST(ScenarioExport, ShippedSpecsAreCurrent) {
  // specs/<name>.ini is generated (gemsd_bench --export-spec=specs) and
  // committed; it must match what the registry exports today.
  const std::string dir = std::string(GEMSD_SOURCE_DIR) + "/specs/";
  if (!std::ifstream(dir + "fig_4_1.ini")) {
    GTEST_SKIP() << "specs/ not reachable";
  }
  for (const Scenario& sc : scenario_registry()) {
    if (!sc.exportable) continue;
    const std::string shipped = slurp(dir + sc.name + ".ini");
    ASSERT_FALSE(shipped.empty()) << sc.name << ".ini missing from specs/";
    EXPECT_EQ(shipped, export_scenario_spec(sc, BenchOptions{}))
        << "specs/" << sc.name
        << ".ini is stale; regenerate with gemsd_bench --export-spec=specs";
  }
}

// --- multi-run spec parsing ----------------------------------------------

TEST(SpecDoc, MultiRunSpecAppliesBaseThenRunKeys) {
  std::istringstream in(R"(
[scenario]
name = demo
caption = two runs

[system]
buffer = 1000
coupling = pcl

# run: first
[run]
nodes = 2
routing = affinity

[run]
nodes = 5
routing = random
coupling = gem
)");
  const SpecDoc doc = parse_spec_doc(in);
  EXPECT_EQ(doc.scenario, "demo");
  ASSERT_EQ(doc.runs.size(), 2u);
  EXPECT_EQ(doc.runs[0].cfg.nodes, 2);
  EXPECT_EQ(doc.runs[0].cfg.buffer_pages, 1000);
  EXPECT_EQ(doc.runs[0].cfg.coupling, Coupling::PrimaryCopy);
  EXPECT_EQ(doc.runs[0].cfg.routing, Routing::Affinity);
  EXPECT_EQ(doc.runs[1].cfg.nodes, 5);
  EXPECT_EQ(doc.runs[1].cfg.coupling, Coupling::GemLocking);
  EXPECT_EQ(doc.runs[1].cfg.routing, Routing::Random);
}

TEST(SpecDoc, SingleRunWrapperRejectsMultiRunSpecs) {
  std::istringstream in("[run]\nnodes = 1\n\n[run]\nnodes = 2\n");
  EXPECT_THROW(parse_run_spec(in), std::runtime_error);
}

TEST(SpecDoc, PartitionKeysKeepTheirCase) {
  std::istringstream in(
      "[system]\nstorage.BRANCH/TELLER = gem\n"
      "gem_cache_pages.BRANCH/TELLER = 123\n");
  const SpecDoc doc = parse_spec_doc(in);
  ASSERT_EQ(doc.runs.size(), 1u);
  EXPECT_EQ(doc.runs[0].cfg.partitions[0].storage, StorageKind::Gem);
  EXPECT_EQ(doc.runs[0].cfg.partitions[0].gem_cache_pages, 123);
}

TEST(SpecKeys, RoundTripReproducesTheConfig) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 7;
  cfg.coupling = Coupling::LockEngine;
  cfg.lock_engine_service = 100 * 1e-6;
  cfg.buffer_pages = 1000;
  cfg.partitions[0].storage = StorageKind::DiskGemCache;
  cfg.partitions[0].gem_cache_pages = 2000;

  SystemConfig rebuilt = make_debit_credit_config();
  apply_spec_keys(rebuilt, spec_keys(cfg));
  EXPECT_EQ(obs::config_json(rebuilt), obs::config_json(cfg));
}

}  // namespace
}  // namespace gemsd

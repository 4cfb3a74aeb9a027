// Telemetry layer: JSON writer/parser/schema validator, the trace recorder
// ring, Chrome trace-event export (golden bytes), config fingerprints, and —
// the properties the whole subsystem is built around — observation does not
// perturb the simulation, and traces and time series are bit-identical at
// any --jobs value — plus the --progress heartbeat and the scheduler
// counters in the detail dump.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/fingerprint.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"

namespace gemsd {
namespace {

SystemConfig quick_config(int nodes = 2) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = nodes;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 1.0;
  cfg.measure = 3.0;
  cfg.seed = 42;
  return cfg;
}

// ---------------------------------------------------------------- JSON core

TEST(Json, WriterParserRoundtrip) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", std::int64_t{-3});
  w.kv("ratio", 0.25);
  w.kv("flag", true);
  w.key("missing");
  w.value_null();
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{18446744073709551615ull});
  w.value(1.5e-9);
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("x", 1.0);
  w.end_object();
  w.end_object();

  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(w.str(), doc, err)) << err;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->str, "a \"quoted\"\nstring");
  EXPECT_DOUBLE_EQ(doc.find("count")->num, -3.0);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->num, 0.25);
  EXPECT_TRUE(doc.find("flag")->b);
  EXPECT_EQ(doc.find("missing")->kind, obs::JsonValue::Kind::Null);
  ASSERT_EQ(doc.find("list")->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.find("nested")->find("x")->num, 1.0);
}

TEST(Json, ParserRejectsMalformedInput) {
  obs::JsonValue doc;
  std::string err;
  EXPECT_FALSE(obs::json_parse("{\"a\":}", doc, err));
  EXPECT_FALSE(obs::json_parse("[1,2", doc, err));
  EXPECT_FALSE(obs::json_parse("{} trailing", doc, err));
  EXPECT_FALSE(obs::json_parse("", doc, err));
}

TEST(Json, SchemaAcceptsAndRejects) {
  const std::string schema_text = R"({
    "type": "object",
    "required": ["schema", "runs"],
    "properties": {
      "schema": {"type": "string", "enum": ["gemsd.results.v1"]},
      "runs": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "object", "required": ["resp_ms"],
                  "properties": {"resp_ms": {"type": "number"}}}
      }
    }
  })";
  obs::JsonValue schema;
  std::string err;
  ASSERT_TRUE(obs::json_parse(schema_text, schema, err)) << err;

  obs::JsonValue doc;
  std::vector<std::string> problems;
  ASSERT_TRUE(obs::json_parse(
      R"({"schema":"gemsd.results.v1","runs":[{"resp_ms":12.5}]})", doc, err));
  EXPECT_TRUE(obs::json_schema_validate(schema, doc, problems))
      << (problems.empty() ? "" : problems.front());

  // Missing required key inside items.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(R"({"schema":"gemsd.results.v1","runs":[{}]})",
                              doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));
  EXPECT_FALSE(problems.empty());

  // Wrong enum value.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(R"({"schema":"v2","runs":[{"resp_ms":1}]})",
                              doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));

  // Wrong type.
  problems.clear();
  ASSERT_TRUE(obs::json_parse(
      R"({"schema":"gemsd.results.v1","runs":[{"resp_ms":"slow"}]})", doc,
      err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));

  // minItems violated.
  problems.clear();
  ASSERT_TRUE(
      obs::json_parse(R"({"schema":"gemsd.results.v1","runs":[]})", doc, err));
  EXPECT_FALSE(obs::json_schema_validate(schema, doc, problems));
}

// ------------------------------------------------------------ trace recorder

TEST(TraceRecorder, RingOverwritesOldestAndCountsDropped) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.instant(obs::TraceName::kCommit, 0, static_cast<std::uint64_t>(i + 1),
                static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (t=0, t=1) were overwritten; the rest come back in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t,
                     static_cast<double>(i + 2));
  }
}

TEST(TraceRecorder, ClearResetsRingAndDropCounter) {
  obs::TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    rec.instant(obs::TraceName::kCommit, 0, 1, static_cast<double>(i));
  }
  EXPECT_GT(rec.dropped(), 0u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.instant(obs::TraceName::kCommit, 0, 1, 9.0);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].t, 9.0);
}

// ------------------------------------------------------------- trace export

TEST(ChromeTrace, GoldenSnippet) {
  obs::RunTelemetry tel;
  tel.stats_start = 0.5;
  tel.end = 2.0;
  tel.trace_enabled = true;

  obs::TraceRecorder rec(64);
  rec.span(obs::TraceName::kTxn, 0, 3, 1.0, 1.05, 2.0);
  rec.phase_total(obs::TraceName::kPhaseCpu, 0, 3, 1.05, 0.010);
  rec.phase_total(obs::TraceName::kPhaseIo, 0, 3, 1.05, 0.030);
  rec.instant(obs::TraceName::kCommit, 0, 3, 1.05);
  rec.flow(obs::TraceKind::FlowBegin, 0, 7, 1.01, false);
  rec.flow(obs::TraceKind::FlowEnd, 1, 7, 1.02, false);
  tel.events = rec.snapshot();

  // Two windows: the first starts before stats_start and draws no counter
  // values; the second draws one value per track at its end.
  auto ts = std::make_shared<obs::TsSeries>();
  ts->window_s = 1.0;
  ts->stats_start = 0.5;
  ts->end = 2.0;
  ts->cpu_capacity = 4;
  ts->gem_capacity = 1;
  ts->net_capacity = 1;
  ts->windows.resize(2);
  ts->windows[0].commits = 99;
  obs::TsWindow& w = ts->windows[1];
  w.commits = 3;
  w.resp.count = 3;
  w.resp.sum_s = 0.06;
  w.admitted_s = 1.5;
  w.mpl_queue_s = 0.5;
  w.cpu_busy_s = 2.0;
  w.gem_busy_s = 0.25;
  w.net_busy_s = 0.125;
  w.disk_queue_s = 0.75;
  tel.timeseries = ts;

  const std::string json = obs::chrome_trace_json(tel, {{"seed", "42"}});

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\","
      "\"otherData\":{\"schema\":\"gemsd.trace.v1\",\"seed\":42,"
      "\"stats_start_s\":0.5,\"end_s\":2,\"events_dropped\":0},"
      "\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
      "\"args\":{\"name\":\"cluster\"}},"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
      "\"args\":{\"name\":\"node0\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"background\"}},"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
      "\"args\":{\"name\":\"node1\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"background\"}},"
      "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"X\",\"pid\":1,\"tid\":4,"
      "\"ts\":1000000,\"dur\":50000,"
      "\"args\":{\"id\":3,\"cpu_ms\":10,\"cpu_wait_ms\":0,\"io_ms\":30,"
      "\"cc_ms\":0,\"mpl_wait_ms\":0,\"restarts\":0,\"type\":2}},"
      "{\"name\":\"commit\",\"cat\":\"txn\",\"ph\":\"i\",\"pid\":1,"
      "\"tid\":4,\"ts\":1050000,\"args\":{\"id\":3},\"s\":\"t\"},"
      "{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"s\",\"pid\":1,\"tid\":0,"
      "\"ts\":1010000,\"id\":7},"
      "{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"f\",\"pid\":2,\"tid\":0,"
      "\"ts\":1020000,\"bp\":\"e\",\"id\":7},"
      "{\"name\":\"throughput\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":3}},"
      "{\"name\":\"response_ms\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":20}},"
      "{\"name\":\"active_txns\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":1.5}},"
      "{\"name\":\"mpl_queue\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":0.5}},"
      "{\"name\":\"cpu_busy\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":0.5}},"
      "{\"name\":\"gem_busy\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":0.25}},"
      "{\"name\":\"net_busy\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":0.125}},"
      "{\"name\":\"disk_queue\",\"cat\":\"timeseries\",\"ph\":\"C\",\"pid\":0,"
      "\"tid\":0,\"ts\":2000000,\"args\":{\"value\":0.75}}"
      "]}";
  EXPECT_EQ(json, expected);

  // The golden bytes must themselves be valid JSON.
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::json_parse(json, doc, err)) << err;
}

// ------------------------------------------------------------- fingerprints

TEST(Fingerprint, ObsSettingsDoNotChangeConfigIdentity) {
  SystemConfig a = quick_config();
  SystemConfig b = a;
  b.obs.trace = true;
  b.obs.timeseries = true;
  b.obs.resources = true;
  b.obs.audit = true;
  EXPECT_EQ(obs::config_hash(a), obs::config_hash(b));

  SystemConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(obs::config_hash(a), obs::config_hash(c));
  SystemConfig d = a;
  d.buffer_pages = a.buffer_pages + 1;
  EXPECT_NE(obs::config_hash(a), obs::config_hash(d));

  EXPECT_EQ(obs::config_hash_hex(a).size(), 16u);
}

TEST(Fingerprint, ConfigJsonIsValidJson) {
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(obs::config_json(quick_config()), doc, err))
      << err;
  EXPECT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("nodes")->num, 2.0);
}

// ----------------------------------------------------- observation in a run

TEST(Observation, DisabledRunRecordsNoEvents) {
  SystemConfig cfg = quick_config();
  ASSERT_FALSE(cfg.obs.trace);
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry);
  EXPECT_FALSE(r.telemetry->trace_enabled);
  EXPECT_TRUE(r.telemetry->events.empty());
  EXPECT_EQ(r.telemetry->events_dropped, 0u);
  EXPECT_FALSE(r.telemetry->timeseries);
  EXPECT_FALSE(r.telemetry->resources);
  // The detail dump is always collected.
  EXPECT_FALSE(r.telemetry->detail.empty());
}

// Observers schedule nothing: with every one of them on, the headline
// results and the whole detail dump, the scheduler's own event counts
// included, are identical to a run without them.
TEST(Observation, DoesNotPerturbTheSimulation) {
  const SystemConfig plain = quick_config();
  SystemConfig observed = plain;
  observed.obs.trace = true;
  observed.obs.trace_capacity = 1 << 16;
  observed.obs.timeseries = true;
  observed.obs.timeseries_window = 0.25;
  observed.obs.resources = true;

  const RunResult a = run_debit_credit(plain);
  const RunResult b = run_debit_credit(observed);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.resp_ms, b.resp_ms);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.cpu_util, b.cpu_util);
  EXPECT_EQ(a.brk_io_ms, b.brk_io_ms);

  ASSERT_TRUE(a.telemetry && b.telemetry);
  EXPECT_EQ(a.telemetry->detail, b.telemetry->detail);
  bool saw_sched = false;
  for (const auto& kv : b.telemetry->detail) {
    saw_sched = saw_sched || kv.first == "sched.events";
  }
  EXPECT_TRUE(saw_sched);

  EXPECT_TRUE(b.telemetry->trace_enabled);
  EXPECT_FALSE(b.telemetry->events.empty());
  EXPECT_TRUE(b.telemetry->timeseries);
  EXPECT_TRUE(b.telemetry->resources);
}

// The time-series windows carry the population gauges: the series spans
// warm-up and measurement, and over the measurement windows the population
// integrals add up to the stations' own integrals since the warm-up reset.
TEST(Observation, WindowGaugesCoverWarmupAndMeasurement) {
  SystemConfig cfg = quick_config();
  cfg.buffer_pages = 20;  // enough misses that the disk arms queue
  cfg.obs.timeseries = true;
  cfg.obs.timeseries_window = 0.25;
  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();
  ASSERT_TRUE(r.telemetry && r.telemetry->timeseries);
  const obs::TsSeries& s = *r.telemetry->timeseries;

  std::size_t warm = 0;
  double admitted = 0, mpl_queue = 0, disk_queue = 0;
  for (std::size_t i = 0; i < s.windows.size(); ++i) {
    if (!s.measured(i)) {
      ++warm;
      continue;
    }
    admitted += s.windows[i].admitted_s;
    mpl_queue += s.windows[i].mpl_queue_s;
    disk_queue += s.windows[i].disk_queue_s;
  }
  EXPECT_GT(warm, 0u);
  EXPECT_LT(warm, s.windows.size());

  double want_admitted = 0, want_mpl_queue = 0, want_disk_queue = 0;
  for (int n = 0; n < cfg.nodes; ++n) {
    want_admitted += sys.tm(n).mpl().busy_time();
    want_mpl_queue += sys.tm(n).mpl().queue_integral();
  }
  for (std::size_t p = 0; p < cfg.partitions.size(); ++p) {
    if (const auto* g = sys.storage().group(static_cast<PartitionId>(p))) {
      want_disk_queue += g->arms().queue_integral();
    }
  }
  EXPECT_GT(want_admitted, 0.0);
  EXPECT_GT(want_disk_queue, 0.0);
  EXPECT_NEAR(admitted, want_admitted, 1e-9 * want_admitted);
  EXPECT_NEAR(mpl_queue, want_mpl_queue, 1e-9 * (want_mpl_queue + 1.0));
  EXPECT_NEAR(disk_queue, want_disk_queue, 1e-9 * want_disk_queue);
}

TEST(Observation, TraceIsBitIdenticalAtAnyJobCount) {
  std::vector<SystemConfig> cfgs;
  for (int n : {1, 2, 3}) {
    SystemConfig cfg = quick_config(n);
    cfg.warmup = 0.5;
    cfg.measure = 2.0;
    cfgs.push_back(cfg);
  }
  cfgs[1].obs.trace = true;
  cfgs[1].obs.trace_capacity = 1 << 16;
  cfgs[1].obs.timeseries = true;
  cfgs[1].obs.timeseries_window = 0.25;

  const std::vector<RunResult> serial = SweepRunner(1).run_debit_credit(cfgs);
  const std::vector<RunResult> parallel = SweepRunner(4).run_debit_credit(cfgs);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);

  const std::vector<std::pair<std::string, std::string>> meta = {
      {"seed", "42"}};
  ASSERT_TRUE(serial[1].telemetry && parallel[1].telemetry);
  // The trace carries the time series' counter tracks too.
  const std::string trace_serial =
      obs::chrome_trace_json(*serial[1].telemetry, meta);
  const std::string trace_parallel =
      obs::chrome_trace_json(*parallel[1].telemetry, meta);
  EXPECT_EQ(trace_serial, trace_parallel);
  EXPECT_FALSE(serial[1].telemetry->events.empty());
  EXPECT_NE(trace_serial.find("\"ph\":\"C\""), std::string::npos);

  ASSERT_TRUE(serial[1].telemetry->timeseries &&
              parallel[1].telemetry->timeseries);
  EXPECT_EQ(obs::timeseries_json(*serial[1].telemetry->timeseries, meta),
            obs::timeseries_json(*parallel[1].telemetry->timeseries, meta));
  EXPECT_EQ(serial[1].telemetry->detail, parallel[1].telemetry->detail);
}

TEST(Observation, TxnPhaseTotalsReconcileWithReportedBreakdown) {
  SystemConfig cfg = quick_config();
  cfg.obs.trace = true;
  cfg.obs.trace_capacity = 1 << 20;  // keep every event, no ring drops
  const RunResult r = run_debit_credit(cfg);
  ASSERT_TRUE(r.telemetry && r.telemetry->trace_enabled);
  ASSERT_EQ(r.telemetry->events_dropped, 0u);
  ASSERT_GT(r.commits, 0u);

  double cpu = 0, cpu_wait = 0, io = 0, cc = 0, queue = 0;
  std::uint64_t txn_spans = 0;
  for (const auto& e : r.telemetry->events) {
    if (e.kind == obs::TraceKind::Span && e.name == obs::TraceName::kTxn) {
      ++txn_spans;
    }
    if (e.kind != obs::TraceKind::PhaseTotal) continue;
    switch (e.name) {
      case obs::TraceName::kPhaseCpu: cpu += e.value; break;
      case obs::TraceName::kPhaseCpuWait: cpu_wait += e.value; break;
      case obs::TraceName::kPhaseIo: io += e.value; break;
      case obs::TraceName::kPhaseCc: cc += e.value; break;
      case obs::TraceName::kPhaseQueue: queue += e.value; break;
      default: break;
    }
  }
  EXPECT_EQ(txn_spans, r.commits);

  const double per_txn_ms = 1e3 / static_cast<double>(r.commits);
  const auto within_1pct = [](double got, double want) {
    return std::abs(got - want) <= 0.01 * std::max(want, 1e-9) + 1e-9;
  };
  EXPECT_TRUE(within_1pct(cpu * per_txn_ms, r.brk_cpu_ms))
      << cpu * per_txn_ms << " vs " << r.brk_cpu_ms;
  EXPECT_TRUE(within_1pct(cpu_wait * per_txn_ms, r.brk_cpu_wait_ms))
      << cpu_wait * per_txn_ms << " vs " << r.brk_cpu_wait_ms;
  EXPECT_TRUE(within_1pct(io * per_txn_ms, r.brk_io_ms))
      << io * per_txn_ms << " vs " << r.brk_io_ms;
  EXPECT_TRUE(within_1pct(cc * per_txn_ms, r.brk_cc_ms))
      << cc * per_txn_ms << " vs " << r.brk_cc_ms;
  EXPECT_TRUE(within_1pct(queue * per_txn_ms, r.brk_queue_ms))
      << queue * per_txn_ms << " vs " << r.brk_queue_ms;
}

// The scheduler's own counters land in the detail dump and read the same
// values the scheduler reports.
TEST(Observation, DetailCarriesSchedulerCounters) {
  SystemConfig cfg = quick_config();
  System sys(cfg, make_debit_credit_workload(cfg));
  sys.start_source();
  sys.run_until(cfg.warmup);
  sys.reset_stats();
  sys.run_until(cfg.warmup + cfg.measure);
  const RunResult r = sys.collect();
  ASSERT_TRUE(r.telemetry);
  double events = -1, maxq = -1, queued = -1;
  for (const auto& kv : r.telemetry->detail) {
    if (kv.first == "sched.events") events = kv.second;
    if (kv.first == "sched.max_queue_depth") maxq = kv.second;
    if (kv.first == "sched.queued_events") queued = kv.second;
  }
  EXPECT_GT(events, 0);
  EXPECT_EQ(events, static_cast<double>(sys.scheduler().events_processed()));
  EXPECT_GT(maxq, 0);
  EXPECT_EQ(maxq, static_cast<double>(sys.scheduler().max_queued()));
  EXPECT_GE(maxq, queued);
}

// ------------------------------------------------------ progress heartbeat

sim::Task<void> ticker(sim::Scheduler& s, int ticks) {
  for (int i = 0; i < ticks; ++i) co_await s.delay(0.001);
}

TEST(Progress, SchedulerHookFiresEveryNEvents) {
  sim::Scheduler s;
  int fired = 0;
  s.set_progress_hook([&] { ++fired; }, 10);
  s.spawn(ticker(s, 24));  // 25 events: the start and 24 delays
  s.run_until(1.0);
  EXPECT_EQ(fired, 2);  // after events 10 and 20
}

// The heartbeat never perturbs results: a period that can't elapse still
// installs the hook on the hot path, and the whole detail dump stays
// identical.
TEST(Progress, HeartbeatDoesNotPerturbMetrics) {
  SystemConfig cfg = quick_config();
  cfg.warmup = 0.1;
  cfg.measure = 0.4;
  const RunResult off = run_debit_credit(cfg);
  cfg.obs.progress_every_s = 3600.0;
  const RunResult on = run_debit_credit(cfg);
  EXPECT_EQ(on.commits, off.commits);
  EXPECT_DOUBLE_EQ(on.throughput, off.throughput);
  EXPECT_DOUBLE_EQ(on.resp_ms, off.resp_ms);
  EXPECT_DOUBLE_EQ(on.cpu_util, off.cpu_util);
  ASSERT_TRUE(on.telemetry && off.telemetry);
  EXPECT_EQ(on.telemetry->detail, off.telemetry->detail);
}

}  // namespace
}  // namespace gemsd

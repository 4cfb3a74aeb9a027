#include "core/experiment.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/fingerprint.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/resources.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gemsd {

System::Workload make_trace_workload(const SystemConfig& cfg,
                                     const workload::Trace& trace) {
  System::Workload wl;
  wl.gen = std::make_unique<workload::TraceWorkload>(trace);
  const auto profile = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(profile, cfg.nodes);
  if (cfg.routing == Routing::Random) {
    wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  } else {
    wl.router = std::make_unique<workload::TableRouter>(share);
  }
  // GLA allocation is coordinated with the affinity routing in both cases
  // (the paper computes the GLA from the reference distribution heuristics).
  wl.gla = std::make_unique<workload::FileGlaMap>(
      workload::make_gla_assignment(profile, share, cfg.nodes));
  return wl;
}

SystemConfig make_trace_config(const workload::Trace& trace) {
  SystemConfig c;
  c.arrival_rate_per_node = 50.0;
  c.buffer_pages = 1000;
  c.update = UpdateStrategy::NoForce;
  c.pcl_read_optimization = true;
  // Trace transactions are ~20x larger than debit-credit; keep the input
  // queue from becoming the bottleneck ("MPL high enough to avoid queuing
  // delays at the transaction manager").
  c.mpl = 400;
  // CPU path lengths sized so a ~57-reference transaction costs ~350k
  // instructions (the paper kept CPU and device characteristics as for
  // debit-credit; GEM runs showed ~45 % utilization at 50 TPS/node).
  c.path.bot_instr = 25000;
  c.path.per_ref_instr = 4200;
  c.path.eot_instr = 25000;
  c.partitions.resize(static_cast<std::size_t>(trace.num_files));
  for (int f = 0; f < trace.num_files; ++f) {
    auto& pc = c.partitions[static_cast<std::size_t>(f)];
    pc.name = "F" + std::to_string(f);
    pc.pages_per_unit = 66000;  // upper bound; page ids come from the trace
    pc.blocking_factor = 1;
    pc.locked = true;
    // The trace DB size is constant, but the paper gives every configuration
    // "a sufficient number of disks to avoid I/O bottlenecks" — the spindle
    // count scales with the offered throughput (nodes), not the data volume.
    pc.scale_with_nodes = true;
    pc.disks_per_unit = 12;
    pc.storage = StorageKind::Disk;
  }
  return c;
}

RunResult run_trace(const SystemConfig& cfg, const workload::Trace& trace) {
  System sys(cfg, make_trace_workload(cfg, trace));
  return sys.run();
}

FlagTable shared_flags(BenchOptions& o) {
  using K = Flag::Kind;
  SystemConfig::ObsConfig& obs = o.obs;
  return {
      {"--jobs", K::Int, "N", "worker threads (0 = hardware_concurrency)",
       &o.jobs},
      {"--full", K::Switch, "", "verbose per-run diagnostics", &o.full},
      {"--csv", K::Switch, "", "machine-readable output", &o.csv},
      {"--slow-k", K::Int, "K", "record the K slowest transactions per run",
       &obs.slow_k},
      {"--metrics-json", K::String, "F",
       "structured results file (default\n"
       "results/BENCH_<bench>.json)",
       &o.metrics_json},
      {"--trace", K::String, "F", "Chrome trace-event JSON of one sweep point",
       &o.trace_file},
      {"--trace-run", K::Int, "I",
       "which sweep point gets traced (default 0; taken modulo the\n"
       "number of points)",
       &o.trace_run},
      {"--trace-capacity", K::U64, "N", "trace ring-buffer capacity [events]",
       &obs.trace_capacity},
      {"--trace-filter", K::Regex, "RE",
       "record only events whose name matches the regex\n"
       "(filtered events never enter the ring, so they don't\n"
       "count as dropped)",
       &obs.trace_filter},
      {"--audit", K::Switch, "", "online invariant auditors (fail fast)",
       &obs.audit},
      {.name = "--progress",
       .kind = K::Double,
       .meta = "SECS",
       .help = "stderr JSONL heartbeat every SECS wall seconds\n"
               "(default 10)",
       .target = &obs.progress_every_s,
       .above = 0.0,
       .bare = "10"},
      {.name = "--timeseries",
       .kind = K::OptFile,
       .meta = "F",
       .help = "per-window time series of the --trace-run point\n"
               "(gemsd.timeseries.v1 JSON; default\n"
               "results/TIMESERIES_<bench>.json; analyze with\n"
               "gemsd_analyze --timeseries)",
       .target = &o.timeseries_file,
       .also = [&obs] { obs.timeseries = true; }},
      {.name = "--timeseries-window",
       .kind = K::Double,
       .meta = "S",
       .help = "window width [sim s] (default 0.5; doubles when\n"
               "the 512-window cap is hit); implies --timeseries",
       .target = &obs.timeseries_window,
       .above = 0.0,
       .also = [&obs] { obs.timeseries = true; }},
      {.name = "--resources",
       .kind = K::OptFile,
       .meta = "F",
       .help = "per-resource operational snapshot of the --trace-run\n"
               "point (gemsd.resources.v1 JSON; default\n"
               "results/RESOURCES_<bench>.json; analyze with\n"
               "gemsd_analyze --bottleneck)",
       .target = &o.resources_file,
       .also = [&obs] { obs.resources = true; }},
  };
}

FlagTable bench_flags(BenchOptions& o) {
  using K = Flag::Kind;
  FlagTable t = {
      {.name = "--quick",
       .kind = K::Switch,
       .help = "shorter measurement interval (CI-friendly):\n"
               "warmup 2 s, measure 6 s. Later flags win, so\n"
               "'--quick --warmup=5' restores the default cut",
       .also =
           [&o] {
             o.warmup = 2.0;
             o.measure = 6.0;
           }},
      {"--measure", K::Double, "S", "measurement seconds (default 20)",
       &o.measure, 0.0},
      {"--warmup", K::Double, "S",
       "warm-up seconds (default 5, the\n"
       "SystemConfig::warmup default; check it after the\n"
       "fact with gemsd_analyze --timeseries)",
       &o.warmup},
      {"--max-nodes", K::Int, "N", "cap the node sweep (default 10)",
       &o.max_nodes, 0.0},
      {"--seed", K::U64, "S", "simulation seed (default 42)", &o.seed},
      {"--no-json", K::Switch, "", "skip the structured results file",
       &o.no_json},
  };
  FlagTable shared = shared_flags(o);
  t.insert(t.end(), shared.begin(), shared.end());
  return t;
}

std::string try_parse_bench_args(const std::vector<std::string>& args,
                                 BenchOptions& o) {
  return parse_flags(args, bench_flags(o));
}

std::string bench_usage() {
  BenchOptions o;
  return flag_usage(bench_flags(o));
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions o;
  const std::string err = try_parse_bench_args(
      std::vector<std::string>(argv + 1, argv + argc), o);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\nusage: %s [flags]\n%s", err.c_str(),
                 argc > 0 ? argv[0] : "bench", bench_usage().c_str());
    std::exit(2);
  }
  return o;
}

std::vector<std::string> debit_credit_partition_names() {
  return {"B/T", "ACCT", "HIST"};
}

namespace {

/// The sweep point --trace-run selects.
std::size_t picked_point(const BenchOptions& opt, std::size_t points) {
  return static_cast<std::size_t>(opt.trace_run < 0 ? 0 : opt.trace_run) %
         (points ? points : 1);
}

}  // namespace

void apply_obs_options(std::vector<SystemConfig>& cfgs,
                       const BenchOptions& opt) {
  const std::size_t picked = picked_point(opt, cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    auto& obs = cfgs[i].obs;
    obs.slow_k = opt.obs.slow_k;
    obs.audit = opt.obs.audit;
    obs.progress_every_s = opt.obs.progress_every_s;
    if (i != picked) continue;
    if (!opt.trace_file.empty()) {
      obs.trace = true;
      obs.trace_capacity = opt.obs.trace_capacity;
      obs.trace_filter = opt.obs.trace_filter;
    }
    if (opt.obs.timeseries) {
      obs.timeseries = true;
      obs.timeseries_window = opt.obs.timeseries_window;
    }
    if (opt.obs.resources) obs.resources = true;
  }
}

std::vector<BenchRun> zip_runs(const std::vector<SystemConfig>& cfgs,
                               const std::vector<RunResult>& results) {
  std::vector<BenchRun> out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    BenchRun b;
    if (i < cfgs.size()) b.config = cfgs[i];
    b.result = results[i];
    out.push_back(std::move(b));
  }
  return out;
}

namespace {

void write_metrics_object(obs::JsonWriter& w, const RunResult& r,
                          const std::vector<std::string>& partition_names) {
  w.begin_object();
  w.kv("label", r.label());
  w.kv("nodes", static_cast<std::int64_t>(r.nodes));
  w.kv("coupling", to_string(r.coupling));
  w.kv("update", to_string(r.update));
  w.kv("routing", to_string(r.routing));
  w.kv("buffer_pages", static_cast<std::int64_t>(r.buffer_pages));
  w.kv("arrival_rate_per_node", r.arrival_rate_per_node);
  w.kv("resp_ms", r.resp_ms);
  w.kv("resp_ci_ms", r.resp_ci_ms);
  w.kv("resp_p95_ms", r.resp_p95_ms);
  w.kv("resp_norm_ms", r.resp_norm_ms);
  w.kv("throughput", r.throughput);
  w.kv("commits", static_cast<std::uint64_t>(r.commits));
  w.kv("aborts", static_cast<std::uint64_t>(r.aborts));
  w.kv("deadlocks", static_cast<std::uint64_t>(r.deadlocks));
  w.kv("cpu_util", r.cpu_util);
  w.kv("cpu_util_max", r.cpu_util_max);
  w.kv("gem_util", r.gem_util);
  w.kv("net_util", r.net_util);
  w.kv("tps_per_node_at_80", r.tps_per_node_at_80);
  w.key("hit_ratio");
  w.begin_object();
  for (std::size_t p = 0; p < r.hit_ratio.size(); ++p) {
    const std::string name =
        p < partition_names.size() ? partition_names[p] : std::to_string(p);
    w.kv(name, r.hit_ratio[p]);
  }
  w.end_object();
  w.kv("invalidations_per_txn", r.invalidations_per_txn);
  w.kv("page_requests_per_txn", r.page_requests_per_txn);
  w.kv("page_request_delay_ms", r.page_request_delay_ms);
  w.kv("evict_writes_per_txn", r.evict_writes_per_txn);
  w.kv("force_writes_per_txn", r.force_writes_per_txn);
  w.kv("local_lock_fraction", r.local_lock_fraction);
  w.kv("lock_waits_per_txn", r.lock_waits_per_txn);
  w.kv("lock_wait_ms", r.lock_wait_ms);
  w.kv("messages_per_txn", r.messages_per_txn);
  w.kv("revocations_per_txn", r.revocations_per_txn);
  w.key("breakdown_ms");
  w.begin_object();
  w.kv("cpu", r.brk_cpu_ms);
  w.kv("cpu_wait", r.brk_cpu_wait_ms);
  w.kv("io", r.brk_io_ms);
  w.kv("cc", r.brk_cc_ms);
  w.kv("queue", r.brk_queue_ms);
  w.end_object();
  // Additive v1 extension: tail percentiles of the response time and of each
  // breakdown phase (ms). --compare reads only resp_ms/resp_ci_ms/throughput,
  // so baselines written before this key stay comparable.
  w.key("percentiles");
  w.begin_object();
  const auto pct = [&w](const char* key, const RunResult::Percentiles& p) {
    w.key(key);
    w.begin_object();
    w.kv("p50", p.p50);
    w.kv("p95", p.p95);
    w.kv("p99", p.p99);
    w.end_object();
  };
  pct("response_ms", r.pct_resp);
  pct("cpu_ms", r.pct_cpu);
  pct("cpu_wait_ms", r.pct_cpu_wait);
  pct("io_ms", r.pct_io);
  pct("cc_ms", r.pct_cc);
  pct("queue_ms", r.pct_queue);
  w.end_object();
  // Additive v1 extension: per-GEM-shard rows (one row when gem_shards=1).
  // --compare gates these whenever both documents carry the block, so a
  // sharding regression in any single shard fails the comparison even when
  // the aggregate gem_util happens to average out.
  w.key("gem_shards");
  w.begin_array();
  for (const auto& gs : r.gem_shards) {
    w.begin_object();
    w.kv("util", gs.util);
    w.kv("queue_mean", gs.queue_mean);
    w.kv("wait_ms", gs.wait_ms);
    w.kv("completions", static_cast<std::uint64_t>(gs.completions));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_telemetry_members(obs::JsonWriter& w, const obs::RunTelemetry* tel) {
  w.key("detail");
  w.begin_object();
  if (tel) {
    for (const auto& [name, value] : tel->detail) w.kv(name, value);
  }
  w.end_object();

  w.key("slowest");
  w.begin_array();
  if (tel) {
    for (const auto& t : tel->slowest) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(t.id));
      w.kv("node", static_cast<std::int64_t>(t.node));
      w.kv("type", static_cast<std::int64_t>(t.type));
      w.kv("restarts", static_cast<std::int64_t>(t.restarts));
      w.kv("arrival_s", t.arrival);
      w.kv("response_ms", t.response * 1e3);
      w.key("breakdown_ms");
      w.begin_object();
      w.kv("cpu", t.cpu * 1e3);
      w.kv("cpu_wait", t.cpu_wait * 1e3);
      w.kv("io", t.io * 1e3);
      w.kv("cc", t.cc * 1e3);
      w.kv("queue", t.queue * 1e3);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
}

/// `given`, or the default results/<KIND>_<bench>.json when it is "".
std::string artifact_path(const char* kind, const std::string& bench,
                          const std::string& given) {
  return given.empty() ? "results/" + std::string(kind) + "_" + bench + ".json"
                       : given;
}

bool write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

}  // namespace

std::string write_bench_json(const std::string& bench,
                             const std::string& caption,
                             const BenchOptions& opt,
                             const std::vector<BenchRun>& runs,
                             const std::vector<std::string>& partition_names) {
  if (opt.no_json) return "";
  const std::string path = artifact_path("BENCH", bench, opt.metrics_json);

  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "gemsd.results.v1");
  w.kv("bench", bench);
  w.kv("caption", caption);
  w.kv("git", obs::build_git_describe());
  // Process footprint at emission time: the peak covers every run in the
  // file, which is what scale-out memory budgets gate on. Best-effort zeros
  // off Linux; wall-clock-side only, so metrics stay bit-identical.
  const obs::MemoryUsage mem = obs::memory_usage();
  w.key("memory");
  w.begin_object();
  w.kv("current_rss_bytes", mem.current_rss_bytes);
  w.kv("peak_rss_bytes", mem.peak_rss_bytes);
  w.kv("heap_bytes", mem.heap_bytes);
  w.end_object();
  w.key("options");
  w.begin_object();
  w.kv("warmup", opt.warmup);
  w.kv("measure", opt.measure);
  w.kv("max_nodes", static_cast<std::int64_t>(opt.max_nodes));
  w.kv("seed", static_cast<std::uint64_t>(opt.seed));
  w.kv("slow_k", static_cast<std::int64_t>(opt.obs.slow_k));
  w.kv("audit", opt.obs.audit);
  w.kv("trace_filter", opt.obs.trace_filter);
  w.end_object();
  w.key("partitions");
  w.begin_array();
  for (const auto& p : partition_names) w.value(p);
  w.end_array();

  w.key("runs");
  w.begin_array();
  for (const auto& run : runs) {
    w.begin_object();
    w.kv("config_hash", obs::config_hash_hex(run.config));
    w.kv("name", run.name);
    w.key("config");
    w.raw(obs::config_json(run.config));
    w.key("metrics");
    write_metrics_object(w, run.result, partition_names);
    w.key("extra");
    w.begin_object();
    for (const auto& [name, value] : run.extra) w.kv(name, value);
    w.end_object();
    write_telemetry_members(w, run.result.telemetry.get());
    w.end_object();
  }
  w.end_array();
  w.end_object();

  return write_text_file(path, w.take()) ? path : "";
}

Artifacts write_artifacts(const std::string& bench, const std::string& caption,
                          const BenchOptions& opt,
                          const std::vector<BenchRun>& runs,
                          const std::vector<std::string>& partition_names) {
  Artifacts out;
  out.results = write_bench_json(bench, caption, opt, runs, partition_names);
  if (runs.empty()) return out;
  const std::size_t idx = picked_point(opt, runs.size());
  const BenchRun& run = runs[idx];
  const obs::RunTelemetry* tel = run.result.telemetry.get();
  obs::JsonWriter git, seed, hash;
  git.value(obs::build_git_describe());
  seed.value(static_cast<std::uint64_t>(run.config.seed));
  hash.value(obs::config_hash_hex(run.config));
  std::vector<std::pair<std::string, std::string>> metadata = {
      {"git", git.take()},
      {"seed", seed.take()},
      {"config_hash", hash.take()},
  };
  // One document of the picked run: written when its flag was given and the
  // run recorded it; `render` is called only then.
  const auto emit = [&](bool wanted, bool recorded, const char* flag,
                        const char* what, const std::string& path,
                        const auto& render) -> std::string {
    if (!wanted) return "";
    if (!recorded) {
      std::fprintf(stderr, "warning: --%s given but run %zu has no %s\n",
                   flag, idx, what);
      return "";
    }
    return write_text_file(path, render()) ? path : "";
  };
  out.trace = emit(!opt.trace_file.empty(), tel && tel->trace_enabled, "trace",
                   "trace", opt.trace_file, [&] {
                     auto meta = metadata;
                     meta.emplace_back("config", obs::config_json(run.config));
                     return obs::chrome_trace_json(*tel, meta);
                   });
  out.timeseries =
      emit(opt.obs.timeseries, tel && tel->timeseries, "timeseries",
           "time series",
           artifact_path("TIMESERIES", bench, opt.timeseries_file),
           [&] { return obs::timeseries_json(*tel->timeseries, metadata); });
  out.resources =
      emit(opt.obs.resources, tel && tel->resources, "resources",
           "resource snapshot",
           artifact_path("RESOURCES", bench, opt.resources_file),
           [&] { return obs::resources_json(*tel->resources, metadata); });
  return out;
}

void Artifacts::print() const {
  if (!results.empty()) std::printf("results: %s\n", results.c_str());
  if (!trace.empty()) std::printf("trace: %s\n", trace.c_str());
  if (!timeseries.empty()) std::printf("timeseries: %s\n", timeseries.c_str());
  if (!resources.empty()) std::printf("resources: %s\n", resources.c_str());
}

std::string fingerprint_line(const std::string& bench,
                             const SystemConfig& cfg) {
  std::string s = bench;
  s += " git=";
  s += obs::build_git_describe();
  s += " seed=" + std::to_string(cfg.seed);
  s += " config=" + obs::config_hash_hex(cfg);
  return s;
}

}  // namespace gemsd

// gemsd_run — run any experiment from a small INI-style spec, no C++
// required:
//
//   ./gemsd_run spec.ini [more-specs.ini ...] [--csv] [--full] [--jobs=N]
//              [--metrics-json=FILE] [--trace=FILE] [--trace-run=I]
//              [--trace-filter=RE] [--sample=S] [--slow-k=K] [--audit]
//              [--progress[=SECS]] [--timeseries[=FILE]]
//              [--timeseries-window=S] [--resources[=FILE]]
//
// A spec holds either a single configuration or a whole sweep (one [run]
// section per point — the format gemsd_bench --export-spec writes; see
// specs/*.ini). All runs from all files execute as one sweep on a worker
// pool (--jobs=N, default hardware_concurrency); results print in spec
// order. --metrics-json writes the structured results report (all metrics,
// telemetry samples, slowest transactions); --trace writes a Chrome
// trace-event file for one of the runs (pick with --trace-run).
// A malformed flag value exits 2 with a message naming the flag. See
// src/core/config_file.hpp for the spec format.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/trace.hpp"
#include "workload/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace gemsd;
  bool csv = false, full = false;
  int jobs = 0;
  BenchOptions obs_opt;  // carries the telemetry/export flags
  obs_opt.sample_every = 0.0;
  obs_opt.slow_k = 0;
  obs_opt.no_json = true;  // only write JSON when --metrics-json is given
  std::vector<std::string> spec_files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    bool ok = true;
    if (a == "--csv") {
      csv = true;
    } else if (a == "--full") {
      full = true;
    } else if (value_of(a, "--jobs", v)) {
      ok = to_int(v, jobs);
    } else if (value_of(a, "--metrics-json", v)) {
      obs_opt.metrics_json = v;
      obs_opt.no_json = false;
    } else if (value_of(a, "--trace", v)) {
      obs_opt.trace_file = v;
    } else if (value_of(a, "--trace-run", v)) {
      ok = to_int(v, obs_opt.trace_run);
    } else if (value_of(a, "--trace-capacity", v)) {
      std::uint64_t cap = 0;
      ok = to_u64(v, cap);
      obs_opt.trace_capacity = static_cast<std::size_t>(cap);
    } else if (value_of(a, "--trace-filter", v)) {
      obs_opt.trace_filter = v;
      try {
        (void)obs::trace_name_filter(obs_opt.trace_filter);
      } catch (const std::regex_error&) {
        std::fprintf(stderr, "error: --trace-filter is not a valid regex\n");
        return 1;
      }
    } else if (value_of(a, "--sample", v)) {
      ok = to_double(v, obs_opt.sample_every);
    } else if (value_of(a, "--slow-k", v)) {
      ok = to_int(v, obs_opt.slow_k);
    } else if (a == "--audit") {
      obs_opt.audit = true;
    } else if (a == "--timeseries") {
      obs_opt.timeseries = true;
    } else if (value_of(a, "--timeseries", v)) {
      obs_opt.timeseries = true;
      obs_opt.timeseries_file = v;
    } else if (value_of(a, "--timeseries-window", v)) {
      obs_opt.timeseries = true;
      ok = to_double(v, obs_opt.timeseries_window);
      if (ok && obs_opt.timeseries_window <= 0) {
        std::fprintf(stderr, "error: --timeseries-window must be > 0\n");
        return 1;
      }
    } else if (a == "--resources") {
      obs_opt.resources = true;
    } else if (value_of(a, "--resources", v)) {
      obs_opt.resources = true;
      obs_opt.resources_file = v;
    } else if (a == "--progress") {
      obs_opt.progress_every_s = 10.0;
    } else if (value_of(a, "--progress", v)) {
      ok = to_double(v, obs_opt.progress_every_s);
      if (ok && obs_opt.progress_every_s <= 0) {
        std::fprintf(stderr, "error: --progress period must be > 0\n");
        return 1;
      }
    } else {
      spec_files.push_back(a);
    }
    if (!ok) {
      std::fprintf(stderr, "error: malformed value in '%s'\n", a.c_str());
      return 2;
    }
  }
  if (spec_files.empty()) {
    std::fprintf(stderr,
                 "usage: gemsd_run <spec.ini> [more-specs.ini ...] "
                 "[--csv] [--full] [--jobs=N] [--metrics-json=FILE] "
                 "[--trace=FILE] [--trace-run=I] [--trace-filter=RE] "
                 "[--sample=S] [--slow-k=K] [--audit] "
                 "[--progress[=SECS]] [--timeseries[=FILE]] "
                 "[--timeseries-window=S] [--resources[=FILE]]\n");
    return 1;
  }

  // Flatten all spec files into one run list, remembering where each run
  // came from for the report headers.
  struct Job {
    RunSpec spec;
    std::string title;  ///< "<file>" or "<file> [run I]"
  };
  std::vector<Job> jobs_list;
  try {
    for (const std::string& f : spec_files) {
      const SpecDoc doc = parse_spec_doc_file(f);
      for (std::size_t r = 0; r < doc.runs.size(); ++r) {
        Job j;
        j.spec = doc.runs[r];
        j.title = doc.runs.size() == 1
                      ? f
                      : f + " [run " + std::to_string(r + 1) + "/" +
                            std::to_string(doc.runs.size()) + "]";
        jobs_list.push_back(std::move(j));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Traces are shared across the runs that use the same source: generated
  // (or loaded) once, outside the worker pool.
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const workload::Trace>>
      traces;
  for (const Job& j : jobs_list) {
    if (j.spec.kind != RunSpec::Kind::Trace) continue;
    const auto key = std::make_pair(j.spec.trace_file, j.spec.trace_txns);
    if (traces.count(key)) continue;
    try {
      if (!j.spec.trace_file.empty()) {
        traces[key] = std::make_shared<const workload::Trace>(
            workload::Trace::load_file(j.spec.trace_file));
      } else {
        sim::Rng rng(7);
        workload::SyntheticTraceConfig tc;
        tc.transactions = j.spec.trace_txns;
        traces[key] = std::make_shared<const workload::Trace>(
            workload::generate_synthetic_trace(tc, rng));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  struct SpecResult {
    RunResult r;
    SystemConfig cfg;
    std::vector<std::string> names;
  };
  std::vector<std::function<SpecResult()>> tasks;
  for (std::size_t si = 0; si < jobs_list.size(); ++si) {
    const RunSpec& spec = jobs_list[si].spec;
    SystemConfig::ObsConfig obs;
    obs.sample_every = obs_opt.sample_every;
    obs.slow_k = obs_opt.slow_k;
    obs.audit = obs_opt.audit;
    obs.progress_every_s = obs_opt.progress_every_s;
    const std::size_t picked =
        static_cast<std::size_t>(
            obs_opt.trace_run < 0 ? 0 : obs_opt.trace_run) %
        jobs_list.size();
    if (!obs_opt.trace_file.empty() && si == picked) {
      obs.trace = true;
      obs.trace_capacity = obs_opt.trace_capacity;
      obs.trace_filter = obs_opt.trace_filter;
    }
    if (obs_opt.timeseries && si == picked) {
      obs.timeseries = true;
      obs.timeseries_window = obs_opt.timeseries_window;
    }
    if (obs_opt.resources && si == picked) {
      obs.resources = true;
    }
    std::shared_ptr<const workload::Trace> trace;
    if (spec.kind == RunSpec::Kind::Trace) {
      trace = traces.at(std::make_pair(spec.trace_file, spec.trace_txns));
    }
    tasks.push_back([&spec, obs, trace] {
      SpecResult out;
      if (spec.kind == RunSpec::Kind::DebitCredit) {
        SystemConfig cfg = spec.cfg;
        cfg.obs = obs;
        out.r = run_debit_credit(cfg);
        out.cfg = cfg;
        out.names = debit_credit_partition_names();
      } else {
        // Trace runs take their partition layout from the trace; the spec's
        // system keys are re-applied on top of the trace defaults, exactly
        // how gemsd_bench builds the in-registry config.
        SystemConfig cfg = make_trace_config(*trace);
        apply_spec_keys(cfg, spec.keys);
        cfg.obs = obs;
        out.r = run_trace(cfg, *trace);
        out.cfg = cfg;
        for (int f = 0; f < trace->num_files; ++f) {
          out.names.push_back("F" + std::to_string(f));
        }
      }
      return out;
    });
  }

  std::vector<SpecResult> results;
  try {
    results = SweepRunner(jobs).map(std::move(tasks));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!obs_opt.no_json || !obs_opt.trace_file.empty() ||
      obs_opt.timeseries || obs_opt.resources) {
    std::vector<BenchRun> bruns(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      bruns[i].config = results[i].cfg;
      bruns[i].result = results[i].r;
    }
    std::string caption = "gemsd_run:";
    for (const std::string& f : spec_files) caption += " " + f;
    if (!obs_opt.no_json) {
      write_bench_json("run", caption, obs_opt, bruns,
                       results.empty() ? std::vector<std::string>{}
                                       : results.front().names);
    }
    write_trace_file(obs_opt, bruns);
    write_timeseries_file("run", obs_opt, bruns);
    write_resources_file("run", obs_opt, bruns);
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (csv) {
      print_csv({results[i].r}, results[i].names);
    } else {
      print_table("gemsd_run: " + jobs_list[i].title, {results[i].r},
                  results[i].names, full);
      std::printf("%s\n",
                  fingerprint_line("run", results[i].cfg).c_str());
    }
  }
  return 0;
}

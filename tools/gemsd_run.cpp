// gemsd_run — run any experiment from a small INI-style spec, no C++
// required:
//
//   ./gemsd_run spec.ini [more-specs.ini ...] [flags]
//
// A spec holds either a single configuration or a whole sweep (one [run]
// section per point — the format gemsd_bench --export-spec writes; see
// specs/*.ini). All runs from all files execute as one sweep on a worker
// pool (--jobs=N, default hardware_concurrency); results print in spec
// order. The flags are the shared part of the flag table in
// src/core/experiment.cpp (`gemsd_run --help` lists them); an unknown flag
// or a malformed or out-of-range value exits 2 quoting the argument. See
// src/core/config_file.hpp for the spec format.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "workload/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace gemsd;
  BenchOptions opt;
  opt.obs.slow_k = 0;
  opt.no_json = true;
  bool help = false;
  FlagTable table = shared_flags(opt);
  for (Flag& f : table) {
    // gemsd_run has no --no-json: giving --metrics-json turns the results
    // file on.
    if (f.name == "--metrics-json") f.also = [&opt] { opt.no_json = false; };
  }
  table.push_back({"--help", Flag::Kind::Switch, "",
                   "print this usage and exit (also -h)", &help});
  const std::string usage =
      "usage: gemsd_run <spec.ini> [more-specs.ini ...] [flags]\n\n" +
      flag_usage(table);
  std::vector<std::string> spec_files;
  if (const std::string err =
          parse_flags({argv + 1, argv + argc}, table, &spec_files);
      !err.empty()) {
    std::fprintf(stderr, "gemsd_run: %s\n\n%s", err.c_str(), usage.c_str());
    return 2;
  }
  if (help) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  if (spec_files.empty()) {
    std::fputs(usage.c_str(), stderr);
    return 1;
  }

  // Flatten all spec files into one sweep, remembering where each run came
  // from for the report headers. Traces are shared across the runs that use
  // the same source: generated (or loaded) once, outside the worker pool.
  // Trace runs take their partition layout from the trace; the spec's
  // system keys are re-applied on top of the trace defaults, exactly how
  // gemsd_bench builds the in-registry config.
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const workload::Trace>>
      traces;
  std::vector<SystemConfig> cfgs;
  std::vector<std::shared_ptr<const workload::Trace>> run_traces;
  std::vector<std::vector<std::string>> names;
  std::vector<std::string> titles;  ///< "<file>" or "<file> [run I/N]"
  try {
    for (const std::string& f : spec_files) {
      const SpecDoc doc = parse_spec_doc_file(f);
      for (std::size_t r = 0; r < doc.runs.size(); ++r) {
        const RunSpec& spec = doc.runs[r];
        titles.push_back(doc.runs.size() == 1
                             ? f
                             : f + " [run " + std::to_string(r + 1) + "/" +
                                   std::to_string(doc.runs.size()) + "]");
        if (spec.kind != RunSpec::Kind::Trace) {
          cfgs.push_back(spec.cfg);
          run_traces.push_back(nullptr);
          names.push_back(debit_credit_partition_names());
          continue;
        }
        auto& trace = traces[std::make_pair(spec.trace_file, spec.trace_txns)];
        if (!trace && !spec.trace_file.empty()) {
          trace = std::make_shared<const workload::Trace>(
              workload::Trace::load_file(spec.trace_file));
        } else if (!trace) {
          sim::Rng rng(7);
          workload::SyntheticTraceConfig tc;
          tc.transactions = spec.trace_txns;
          trace = std::make_shared<const workload::Trace>(
              workload::generate_synthetic_trace(tc, rng));
        }
        cfgs.push_back(make_trace_config(*trace));
        apply_spec_keys(cfgs.back(), spec.keys);
        run_traces.push_back(trace);
        names.emplace_back();
        for (int p = 0; p < trace->num_files; ++p) {
          names.back().push_back("F" + std::to_string(p));
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  apply_obs_options(cfgs, opt);

  std::vector<std::function<RunResult()>> tasks;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    tasks.push_back([&cfg = cfgs[i], trace = run_traces[i]] {
      return trace ? run_trace(cfg, *trace) : run_debit_credit(cfg);
    });
  }
  std::vector<RunResult> results;
  try {
    results = SweepRunner(opt.jobs).map(std::move(tasks));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string caption = "gemsd_run:";
  for (const std::string& f : spec_files) caption += " " + f;
  write_artifacts("run", caption, opt, zip_runs(cfgs, results),
                  names.empty() ? std::vector<std::string>{} : names.front());

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (opt.csv) {
      print_csv({results[i]}, names[i]);
    } else {
      print_table("gemsd_run: " + titles[i], {results[i]}, names[i],
                  opt.full);
      std::printf("%s\n", fingerprint_line("run", cfgs[i]).c_str());
    }
  }
  return 0;
}

// gemsd_bench — the one bench driver. Every paper figure (4.1-4.7, Table
// 4.1) and every ablation lives in the compiled-in scenario registry
// (src/core/scenario_registry.cpp); this binary lists, runs, and exports
// them:
//
//   ./gemsd_bench --list [--filter=REGEX]
//   ./gemsd_bench --scenario=NAME [bench flags]
//   ./gemsd_bench --filter=REGEX  [bench flags]
//   ./gemsd_bench --export-spec=DIR [--filter=REGEX] [bench flags]
//
// The bench flags (--quick, --measure=, --jobs=, --trace=, ...) are the
// flag table in src/core/experiment.cpp; `gemsd_bench --help` lists them.
// Output is the same tables/CSV on stdout and the same gemsd.results.v1 JSON
// (BENCH_<name>.json, to --out-dir=DIR when given, else results/).
//
// --export-spec writes one specs/<name>.ini per exportable scenario in the
// selection; gemsd_run executes those to bit-identical metrics (the export
// self-verifies the round trip and fails loudly on drift).
#include <cstdio>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

int main(int argc, char** argv) {
  using namespace gemsd;
  using K = Flag::Kind;

  bool list = false, help = false;
  std::string scenario_name, filter, export_dir, out_dir;
  BenchOptions opt;
  FlagTable table = {
      {"--list", K::Switch, "",
       "list registered scenarios (name, runs, summary)", &list},
      {"--scenario", K::String, "NAME", "run one scenario by exact name",
       &scenario_name},
      {"--filter", K::Regex, "REGEX",
       "select scenarios whose name matches REGEX", &filter},
      {"--export-spec", K::String, "DIR",
       "write DIR/<name>.ini for the selected exportable\n"
       "scenarios (gemsd_run input, round-trip verified)",
       &export_dir},
      {"--out-dir", K::String, "DIR",
       "directory for BENCH_<name>.json results files", &out_dir},
      {"--help", K::Switch, "", "print this usage and exit (also -h)", &help},
  };
  const FlagTable bench = bench_flags(opt);
  table.insert(table.end(), bench.begin(), bench.end());
  const std::string usage =
      "usage: gemsd_bench --list [--filter=REGEX]\n"
      "       gemsd_bench --scenario=NAME [bench flags]\n"
      "       gemsd_bench --filter=REGEX  [bench flags]\n"
      "       gemsd_bench --export-spec=DIR [--filter=REGEX] [bench flags]\n"
      "\n" +
      flag_usage(table);

  if (const std::string err = parse_flags({argv + 1, argv + argc}, table);
      !err.empty()) {
    std::fprintf(stderr, "gemsd_bench: %s\n\n%s", err.c_str(), usage.c_str());
    return 2;
  }
  if (help) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }

  // Resolve the selection: one exact name, a regex, or (for --list and
  // --export-spec) the whole registry.
  std::vector<const Scenario*> sel;
  if (!scenario_name.empty()) {
    const Scenario* sc = find_scenario(scenario_name);
    if (!sc) {
      std::fprintf(stderr,
                   "gemsd_bench: unknown scenario '%s' (see --list)\n",
                   scenario_name.c_str());
      return 2;
    }
    sel.push_back(sc);
  } else {
    const std::regex re(filter);  // the flag table validated it
    for (const Scenario& sc : scenario_registry()) {
      if (filter.empty() || std::regex_search(sc.name, re)) {
        sel.push_back(&sc);
      }
    }
    if (sel.empty()) {
      std::fprintf(stderr, "gemsd_bench: no scenario matches '%s'\n",
                   filter.c_str());
      return 2;
    }
  }

  if (list) {
    for (const Scenario* sc : sel) {
      const std::size_t n = scenario_cell_count(*sc, opt);
      std::printf("%-24s %4zu run%s  %s\n", sc->name.c_str(), n,
                  n == 1 ? " " : "s", sc->doc.c_str());
    }
    return 0;
  }

  if (!export_dir.empty()) {
    int written = 0;
    for (const Scenario* sc : sel) {
      if (!sc->exportable) {
        std::fprintf(stderr, "gemsd_bench: skipping %s (not expressible "
                             "as a run spec)\n",
                     sc->name.c_str());
        continue;
      }
      std::string text;
      try {
        text = export_scenario_spec(*sc, opt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gemsd_bench: %s\n", e.what());
        return 1;
      }
      const std::string path = export_dir + "/" + sc->name + ".ini";
      std::ofstream out(path);
      out << text;
      if (!out) {
        std::fprintf(stderr, "gemsd_bench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
      ++written;
    }
    return written ? 0 : 1;
  }

  if (scenario_name.empty() && filter.empty()) {
    std::fprintf(stderr,
                 "gemsd_bench: nothing selected (use --list, "
                 "--scenario=NAME, or --filter=REGEX)\n\n");
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  if (sel.size() > 1 && !opt.metrics_json.empty()) {
    std::fprintf(stderr,
                 "gemsd_bench: --metrics-json only works with a single "
                 "scenario (results files would overwrite each other); "
                 "use --out-dir=DIR\n");
    return 2;
  }

  for (std::size_t i = 0; i < sel.size(); ++i) {
    const Scenario& sc = *sel[i];
    if (sel.size() > 1) {
      std::printf("%s=== %s ===\n", i ? "\n" : "", sc.name.c_str());
    }
    try {
      const ScenarioResult res = run_scenario(sc, opt);
      emit_scenario(sc, opt, res, out_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemsd_bench: %s: %s\n", sc.name.c_str(),
                   e.what());
      return 1;
    }
  }
  return 0;
}

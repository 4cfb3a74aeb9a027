// Trace-driven simulation walkthrough:
//   1. generate a synthetic trace with the paper's real-life characteristics
//      (or load one from a file in the gemsd text format),
//   2. print its aggregate statistics and the computed affinity routing
//      table + GLA assignment,
//   3. replay it through closely and loosely coupled clusters.
//
//   ./trace_driven [--load=FILE] [--save=FILE] [--nodes=N] [--measure=S]
//                  [--warmup=S]
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/flags.hpp"
#include "workload/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace gemsd;
  std::string load_path, save_path;
  int nodes = 4;
  double measure = 20.0, warmup = 8.0;
  bool help = false;
  using K = Flag::Kind;
  const FlagTable table = {
      {"--load", K::String, "FILE", "replay this trace file", &load_path},
      {"--save", K::String, "FILE", "write the trace to FILE", &save_path},
      {"--nodes", K::Int, "N", "cluster size (default 4)", &nodes, 0.0},
      {"--measure", K::Double, "S", "measured interval [sim s] (default 20)",
       &measure, 0.0},
      {"--warmup", K::Double, "S", "warm-up [sim s] (default 8)", &warmup},
      {"--help", K::Switch, "", "print this usage and exit (also -h)", &help},
  };
  const std::string usage = "usage: trace_driven [flags]\n\n" +
                            flag_usage(table);
  if (const std::string err = parse_flags({argv + 1, argv + argc}, table);
      !err.empty()) {
    std::fprintf(stderr, "trace_driven: %s\n\n%s", err.c_str(),
                 usage.c_str());
    return 2;
  }
  if (help) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }

  workload::Trace trace;
  if (!load_path.empty()) {
    trace = workload::Trace::load_file(load_path);
    std::printf("loaded trace from %s\n", load_path.c_str());
  } else {
    sim::Rng rng(7);
    trace = workload::generate_synthetic_trace({}, rng);
    std::printf("generated synthetic trace (see DESIGN.md for the "
                "substitution rationale)\n");
  }
  if (!save_path.empty()) {
    trace.save_file(save_path);
    std::printf("saved trace to %s\n", save_path.c_str());
  }

  const auto stats = workload::compute_stats(trace);
  std::printf("\ntrace characteristics (paper: 17.5k txns, ~1M refs, 66k "
              "pages, 20%% update txns, 1.6%% write refs, largest >11k):\n"
              "  %zu txns, %zu refs (avg %.1f), %zu distinct pages,\n"
              "  %.1f%% update txns, %.2f%% write refs, largest txn %zu\n",
              stats.transactions, stats.references, stats.mean_refs,
              stats.distinct_pages, stats.update_txn_fraction * 100,
              stats.write_ref_fraction * 100, stats.largest_txn);

  // Show what the allocation heuristics [Ra92b] computed.
  const auto profile = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(profile, nodes);
  const auto gla = workload::make_gla_assignment(profile, share, nodes);
  std::printf("\naffinity routing table (type -> node shares):\n");
  for (std::size_t ty = 0; ty < share.size(); ++ty) {
    std::printf("  type %2zu:", ty);
    for (double v : share[ty]) std::printf(" %4.0f%%", v * 100);
    std::printf("\n");
  }
  std::printf("GLA assignment (file -> node):");
  for (std::size_t f = 0; f < gla.size(); ++f) {
    std::printf(" F%zu->%d", f, gla[f]);
  }
  std::printf("\n");

  std::printf("\nreplaying at 50 TPS/node, %d nodes, buffer 1000, NOFORCE:\n",
              nodes);
  std::printf("%-12s %-9s %9s %9s %7s %7s %7s\n", "coupling", "routing",
              "resp[ms]", "norm[ms]", "cpuAvg", "locLck", "msg/tx");
  for (Coupling c : {Coupling::GemLocking, Coupling::PrimaryCopy}) {
    for (Routing ro : {Routing::Affinity, Routing::Random}) {
      SystemConfig cfg = make_trace_config(trace);
      cfg.nodes = nodes;
      cfg.coupling = c;
      cfg.routing = ro;
      cfg.warmup = warmup;
      cfg.measure = measure;
      const RunResult r = run_trace(cfg, trace);
      std::printf("%-12s %-9s %9.1f %9.1f %6.1f%% %6.1f%% %7.2f\n",
                  to_string(c), to_string(ro), r.resp_ms,
                  r.resp_norm_ms * stats.mean_refs, r.cpu_util * 100,
                  r.local_lock_fraction * 100, r.messages_per_txn);
    }
  }
  return 0;
}

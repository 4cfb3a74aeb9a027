#include "workloads.hpp"

#include <chrono>

#include "core/experiment.hpp"
#include "workload/scale_out.hpp"
#include "workload/trace_generator.hpp"

namespace perfbench {

using gemsd::Coupling;
using gemsd::Routing;
using gemsd::SystemConfig;
using gemsd::UpdateStrategy;

const std::vector<WorkloadDef>& workloads() {
  // Warm-up lengths follow the shipped specs (debit-credit 5 s, trace_pcl.ini
  // 10 s, the scale_out family 2 s); measured intervals are sized so that
  // one repetition takes about a wall second or a few.
  static const std::vector<WorkloadDef> defs = {
      {"dc_pcl", 5.0, 40.0},
      {"trace_pcl", 10.0, 25.0},
      {"scale_out_256", 1.0, 1.0},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workloads()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

namespace {

/// Table 4.1 debit-credit under loose coupling: 8 nodes, PCL, NOFORCE,
/// random routing, 100 TPS per node, 200-page buffers.
BuiltWorkload build_dc_pcl(std::uint64_t seed) {
  BuiltWorkload b;
  b.cfg = gemsd::make_debit_credit_config();
  b.cfg.nodes = 8;
  b.cfg.coupling = Coupling::PrimaryCopy;
  b.cfg.update = UpdateStrategy::NoForce;
  b.cfg.routing = Routing::Random;
  b.cfg.arrival_rate_per_node = 100.0;
  b.cfg.buffer_pages = 200;
  b.cfg.seed = seed;
  b.wl = gemsd::make_debit_credit_workload(b.cfg);
  return b;
}

/// specs/trace_pcl.ini (the Fig 4.7 configuration) on a synthetic trace
/// generated from the workload seed: 8 nodes, PCL with the read
/// optimisation, affinity routing, 50 TPS per node, 1000-page buffers.
BuiltWorkload build_trace_pcl(std::uint64_t seed) {
  BuiltWorkload b;
  const auto t0 = std::chrono::steady_clock::now();
  gemsd::sim::Rng trace_rng(seed);
  b.trace = std::make_unique<gemsd::workload::Trace>(
      gemsd::workload::generate_synthetic_trace({}, trace_rng));
  b.trace_gen_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  b.cfg = gemsd::make_trace_config(*b.trace);
  b.cfg.nodes = 8;
  b.cfg.coupling = Coupling::PrimaryCopy;
  b.cfg.update = UpdateStrategy::NoForce;
  b.cfg.routing = Routing::Affinity;
  b.cfg.arrival_rate_per_node = 50.0;
  b.cfg.buffer_pages = 1000;
  b.cfg.pcl_read_optimization = true;
  b.cfg.seed = seed;
  b.wl = gemsd::make_trace_workload(b.cfg, *b.trace);
  return b;
}

/// The scale_out family at 256 nodes: GEM locking over 16 GLT shards (the
/// family rule max(4, N/16)), GEM-resident data, diurnal arrivals and the
/// drifting Zipf hotspot.
BuiltWorkload build_scale_out_256(std::uint64_t seed) {
  BuiltWorkload b;
  b.cfg = gemsd::workload::make_scale_out_config(256);
  b.cfg.gem.shards = 16;
  b.cfg.seed = seed;
  auto bundle = gemsd::workload::make_scale_out_workload(b.cfg);
  b.wl.gen = std::move(bundle.gen);
  b.wl.router = std::move(bundle.router);
  b.wl.gla = std::move(bundle.gla);
  b.wl.arrival_factor = std::move(bundle.arrival_factor);
  return b;
}

}  // namespace

BuiltWorkload build_workload(const WorkloadDef& def, std::uint64_t seed) {
  BuiltWorkload b = def.name == "dc_pcl"      ? build_dc_pcl(seed)
                    : def.name == "trace_pcl" ? build_trace_pcl(seed)
                                              : build_scale_out_256(seed);
  b.cfg.warmup = def.warmup_s;
  b.cfg.measure = def.measure_s;
  return b;
}

}  // namespace perfbench

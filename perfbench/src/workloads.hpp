#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/system.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/// One benchmark workload: which paper model it builds and the simulated
/// warm-up and measured interval of one repetition.
struct WorkloadDef {
  std::string name;
  double warmup_s;   ///< simulated seconds before reset_stats
  double measure_s;  ///< simulated seconds of the measured interval
};

/// The workloads in run order (dc_pcl, trace_pcl, scale_out_256).
const std::vector<WorkloadDef>& workloads();
/// The definition named `name`, or nullptr.
const WorkloadDef* find_workload(const std::string& name);

/// Everything a System needs, built through the program's public factories
/// from the workload seed. The trace (trace_pcl only) must outlive the
/// System, whose generator replays it by reference.
struct BuiltWorkload {
  std::unique_ptr<gemsd::workload::Trace> trace;
  gemsd::SystemConfig cfg;
  gemsd::System::Workload wl;
  double trace_gen_s = 0;  ///< host seconds in generate_synthetic_trace
};

/// Builds `def` for `seed`: the seed becomes SystemConfig::seed and, for
/// trace_pcl, the seed of the synthetic-trace generator. Observers stay off
/// and the engine sequential (the SystemConfig defaults).
BuiltWorkload build_workload(const WorkloadDef& def, std::uint64_t seed);

}  // namespace perfbench

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// One named benchmark number with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Host-cost microbenchmarks of single layers, each run through the layer's
/// public methods on inputs derived from the workload: its own generated
/// transactions (generator next() with the workload seed, then the
/// workload's router), its buffer size, shard count and measured event-queue
/// depth. Every replay is wrapped in a `replay.<layer>.<part>` span. Returns
/// the sim, cc, node and workload host metrics named in perfbench/README.md.
std::vector<Metric> run_replays(const WorkloadDef& def, std::uint64_t seed,
                                std::size_t queue_depth, SpanLog& spans);

}  // namespace perfbench

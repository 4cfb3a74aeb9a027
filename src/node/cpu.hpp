#pragma once

#include <string>

#include "core/config.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace gemsd::node {

/// A node's CPU complex: k identical processors served FCFS. Requests are
/// expressed in instructions and converted through the per-processor MIPS
/// rate. Supports compound holds ("synchronous" GEM accesses keep the
/// processor busy across the device wait — the defining cost model of close
/// coupling).
class CpuSet {
 public:
  CpuSet(sim::Scheduler& sched, const CpuConfig& cfg, std::string name)
      : sched_(sched), cfg_(cfg), procs_(sched, cfg.processors, std::move(name)) {}

  /// Acquire a processor, execute `instr` instructions, release.
  /// Returns the queueing delay experienced.
  sim::Task<double> consume(double instr) {
    const double w = co_await procs_.acquire();
    co_await sched_.delay(cfg_.instr_to_seconds(instr));
    procs_.release();
    co_return w;
  }

  /// For compound holds: acquire (awaitable returning wait time) / release.
  auto acquire() { return procs_.acquire(); }
  void release() { procs_.release(); }
  /// Execute instructions while already holding a processor.
  sim::Task<void> busy(double instr) {
    co_await sched_.delay(cfg_.instr_to_seconds(instr));
  }

  double seconds(double instr) const { return cfg_.instr_to_seconds(instr); }
  double utilization() const { return procs_.utilization(); }
  /// Total processor-seconds consumed since the last stats reset.
  double busy_seconds(sim::SimTime horizon_start) const {
    return procs_.utilization() * cfg_.processors *
           (sched_.now() - horizon_start);
  }
  const sim::MeanStat& wait_stat() const { return procs_.wait_stat(); }
  void reset_stats() { procs_.reset_stats(); }
  const sim::Resource& resource() const { return procs_; }
  /// Mutable station (observability wiring: wait-sketch attachment).
  sim::Resource& resource() { return procs_; }

 private:
  sim::Scheduler& sched_;
  CpuConfig cfg_;
  sim::Resource procs_;
};

}  // namespace gemsd::node

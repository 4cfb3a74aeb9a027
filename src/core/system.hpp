#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "cc/protocol.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "net/comm.hpp"
#include "net/network.hpp"
#include "node/buffer_manager.hpp"
#include "obs/audit.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "node/cpu.hpp"
#include "node/log_manager.hpp"
#include "node/transaction_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "storage/gem_device.hpp"
#include "storage/storage_manager.hpp"
#include "workload/workload.hpp"

namespace gemsd::obs {
class TimeSeriesRecorder;
class ResourceRecorder;
struct ResourceSet;
}

namespace gemsd {

/// A complete simulated database-sharing cluster: SOURCE, N processing nodes
/// (transaction manager, buffer manager, CPU set), the concurrency/coherency
/// protocol selected by the coupling mode, and the peripherals (GEM, disks,
/// network). Mirrors Fig. 3.1 of the paper.
class System {
 public:
  struct Workload {
    std::unique_ptr<workload::WorkloadGenerator> gen;
    std::unique_ptr<workload::Router> router;
    std::unique_ptr<workload::GlaMap> gla;  ///< required for PCL
    /// Optional arrival-rate modulation (scale_out's diurnal curve): the
    /// SOURCE multiplies the configured rate by factor(now). Unset (the
    /// default) keeps the constant-rate arrival stream byte-identical.
    std::function<double(sim::SimTime)> arrival_factor;
  };

  System(const SystemConfig& cfg, Workload wl);
  ~System();

  /// Run warm-up, reset statistics, run the measurement interval, and
  /// collect the results.
  RunResult run();

  /// Advance the simulation only (tests drive phases manually).
  void start_source();
  void run_until(sim::SimTime t);
  void reset_stats();
  RunResult collect() const;

  // component access (tests, examples)
  sim::Scheduler& scheduler() { return sched_; }
  sim::Rng& rng() { return rng_; }
  Metrics& metrics() { return metrics_; }
  cc::Protocol& protocol() { return *protocol_; }
  node::BufferManager& buffer(NodeId n) { return *bufs_[static_cast<std::size_t>(n)]; }
  node::CpuSet& cpu(NodeId n) { return *cpus_[static_cast<std::size_t>(n)]; }
  node::TransactionManager& tm(NodeId n) { return *tms_[static_cast<std::size_t>(n)]; }
  node::LogManager& log(NodeId n) { return *logs_[static_cast<std::size_t>(n)]; }
  storage::StorageManager& storage() { return *storage_; }
  /// Shard 0 of the GEM authority (the whole device when gem_shards=1).
  storage::GemDevice& gem() { return storage_->gem(); }
  net::Network& network() { return *network_; }
  const SystemConfig& config() const { return cfg_; }

  // observability (null/empty unless enabled in cfg.obs)
  obs::TraceRecorder* trace() { return trace_.get(); }
  const obs::SlowTxnLog& slow_log() const { return slow_log_; }
  obs::Auditor* auditor() { return audit_.get(); }
  obs::TimeSeriesRecorder* timeseries() { return ts_.get(); }
  obs::ResourceRecorder* resource_recorder() { return resrec_.get(); }

  /// Per-station operational snapshot over the current measurement horizon
  /// (obs/resources.hpp). Always available — the counters it reads are
  /// maintained unconditionally; with cfg.obs.resources the rows also carry
  /// the recorded wait sketches. Pure observation.
  obs::ResourceSet resource_snapshot() const;

  /// Inject one transaction directly (tests).
  void submit(NodeId node, workload::TxnSpec spec) {
    tms_[static_cast<std::size_t>(node)]->submit(std::move(spec), sched_.now());
  }

  // --- failure / recovery (Sections 1-2: availability) ---
  /// Crash node n at the current simulation time. In-flight transactions on
  /// it are lost; the SOURCE routes around it; recovery (detection, REDO of
  /// the pages it owned, GLA reconstruction under PCL) runs automatically
  /// and the node rejoins after cfg.failure.node_restart.
  void fail_node(NodeId n);
  bool node_up(NodeId n) const {
    return node_up_[static_cast<std::size_t>(n)];
  }

 private:
  sim::Task<void> source();
  sim::Task<void> recovery_process(NodeId n, sim::SimTime crash_time);
  /// --progress heartbeat: invoked from the scheduler's event loop every few
  /// thousand events; emits one stderr JSONL line when a wall-clock period
  /// has elapsed. Reads counters only — zero perturbation.
  void progress_tick();

  SystemConfig cfg_;
  /// The event kernel. The whole cluster model shares one sim::Rng consumed
  /// in global event order, and its GEM/CPU interactions are synchronous
  /// (zero lookahead, the defining property of close coupling), so a run is
  /// one event queue; see DESIGN.md.
  sim::Scheduler sched_;
  sim::Rng rng_;
  Metrics metrics_;
  std::unique_ptr<storage::StorageManager> storage_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::Comm> comm_;
  std::vector<std::unique_ptr<node::CpuSet>> cpus_;
  std::vector<std::unique_ptr<node::BufferManager>> bufs_;
  std::vector<std::unique_ptr<node::LogManager>> logs_;
  std::unique_ptr<cc::Protocol> protocol_;
  std::vector<std::unique_ptr<node::TransactionManager>> tms_;
  Workload wl_;
  std::vector<bool> node_up_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::unique_ptr<obs::Auditor> audit_;
  std::unique_ptr<obs::TimeSeriesRecorder> ts_;
  std::unique_ptr<obs::ResourceRecorder> resrec_;
  obs::SlowTxnLog slow_log_;
  sim::SimTime stats_start_ = 0;
  std::chrono::steady_clock::time_point progress_epoch_ =
      std::chrono::steady_clock::now();
  double progress_last_s_ = 0;     ///< wall time of the last heartbeat
  std::uint64_t progress_prev_events_ = 0;
  std::uint64_t progress_prev_commits_ = 0;
  sim::SimTime progress_prev_sim_ = 0;
  bool source_started_ = false;
  std::uint64_t recovery_ids_ = 0;
};

/// Convenience: a ready-to-run debit-credit system for the given config.
System::Workload make_debit_credit_workload(const SystemConfig& cfg);

/// Convenience: run one debit-credit experiment.
RunResult run_debit_credit(const SystemConfig& cfg);

}  // namespace gemsd

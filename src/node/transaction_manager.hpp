#pragma once

#include <array>
#include <cstdint>

#include "cc/protocol.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "node/buffer_manager.hpp"
#include "node/log_manager.hpp"
#include "node/cpu.hpp"
#include "node/txn.hpp"
#include "sim/join.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"
#include "workload/workload.hpp"

namespace gemsd::node {

/// Per-node transaction manager (Section 3.2): admits transactions up to the
/// multiprogramming level (excess waits in the input queue), charges CPU at
/// BOT, per record access and at EOT (exponentially distributed bursts),
/// drives locking and buffer accesses per reference, and runs the two-phase
/// commit: phase 1 writes the log (update transactions) and — under FORCE —
/// all modified pages, in parallel; phase 2 releases the locks through the
/// concurrency-control protocol. Deadlock victims are restarted after a
/// short back-off.
class TransactionManager {
 public:
  TransactionManager(sim::Scheduler& sched, sim::Rng& rng,
                     const SystemConfig& cfg, NodeId node, CpuSet& cpu,
                     BufferManager& buf, LogManager& log, cc::Protocol& cc,
                     Metrics& metrics);

  /// Called by the SOURCE; `arrival` is the generation time (response time
  /// includes any input-queue wait).
  void submit(workload::TxnSpec spec, sim::SimTime arrival);

  std::uint64_t submitted() const { return submitted_; }
  const sim::Resource& mpl() const { return mpl_; }
  /// Mutable MPL pool (observability wiring: wait-sketch attachment).
  sim::Resource& mpl_pool() { return mpl_; }

  /// Reset the MPL station's statistics at warm-up end, like every other
  /// queueing station; without this the slot pool's integrals span warm-up
  /// and the operational laws cannot reconcile on the measurement horizon.
  void reset_stats() { mpl_.reset_stats(); }

  /// Node crash / restart: while failed, in-flight transactions are killed
  /// at their next step (their locks are released) and count as lost.
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

 private:
  sim::Task<void> run(Txn txn);
  /// One execution attempt; false => deadlock victim (locks released by the
  /// caller via abort_release).
  sim::Task<bool> execute(Txn& txn);
  sim::Task<void> consume_cpu(Txn& txn, double instr);
  /// Resolve a HISTORY-style append reference to this node's tail page.
  PageId resolve_append(PageId ref, bool& fresh_page);
  /// The held, dirty and dirty_unlocked lists of a finished transaction go
  /// to spare_lists_ and come back as a new transaction's lists.
  void reuse_page_lists(Txn& txn);
  void recycle_page_lists(Txn& txn);

  sim::Scheduler& sched_;
  sim::Rng& rng_;
  const SystemConfig& cfg_;
  NodeId node_;
  CpuSet& cpu_;
  BufferManager& buf_;
  LogManager& log_;
  cc::Protocol& cc_;
  Metrics& metrics_;
  sim::Resource mpl_;
  /// Starts at 1: transaction id 0 is reserved for node background work in
  /// the trace (write-backs, messages), so every txn-scoped event has id != 0.
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::int64_t appends_ = 0;
  bool failed_ = false;
  std::array<PageListPool, 3> spare_lists_;
};

}  // namespace gemsd::node

#pragma once

#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"
#include "workload/workload.hpp"

namespace gemsd::node {

/// Runtime state of one transaction execution attempt.
struct Txn {
  TxnId id = 0;
  NodeId node = kNoNode;
  sim::SimTime arrival = 0.0;  ///< generation time at the SOURCE
  workload::TxnSpec spec;

  /// Pages locked by this transaction, in acquisition order (strict 2PL:
  /// released only at EOT). The mode held is tracked in the lock table.
  /// The transaction manager hands these three lists on from finished
  /// transactions to new ones, so they keep their capacity.
  std::vector<PageId> held;
  /// Locked pages modified by this transaction (subset of held, unique).
  std::vector<PageId> dirty;
  /// Dirty pages of *unlocked* partitions (e.g. HISTORY) to force at commit.
  std::vector<PageId> dirty_unlocked;

  int restarts = 0;

  // Response time decomposition (accumulated while executing).
  double t_cpu_wait = 0;   ///< queueing for a processor
  double t_cpu = 0;        ///< processor service (incl. synchronous GEM holds)
  double t_io = 0;         ///< storage reads/writes awaited by the txn
  double t_cc = 0;         ///< concurrency control incl. lock waits & remote requests
  double t_queue = 0;      ///< input queue (MPL) waiting

  bool holds_page(PageId p) const {
    for (const auto& h : held)
      if (h == p) return true;
    return false;
  }
  void note_dirty(PageId p) {
    for (const auto& d : dirty)
      if (d == p) return;
    dirty.push_back(p);
  }
  void note_dirty_unlocked(PageId p) {
    for (const auto& d : dirty_unlocked)
      if (d == p) return;
    dirty_unlocked.push_back(p);
  }
};

/// Spare page lists: a list given back keeps its capacity for the next
/// take(), so lists built anew for every transaction stop allocating once
/// they have grown to their working size.
class PageListPool {
 public:
  std::vector<PageId> take() {
    if (spare_.empty()) return {};
    std::vector<PageId> v = std::move(spare_.back());
    spare_.pop_back();
    return v;
  }
  void give(std::vector<PageId>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    spare_.push_back(std::move(v));
  }

 private:
  std::vector<std::vector<PageId>> spare_;
};

}  // namespace gemsd::node

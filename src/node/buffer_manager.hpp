#pragma once

#include <coroutine>
#include <functional>
#include <optional>

#include "core/config.hpp"
#include "core/lru.hpp"
#include "core/metrics.hpp"
#include "core/page_index.hpp"
#include "core/types.hpp"
#include "node/cpu.hpp"
#include "node/txn.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "storage/storage_manager.hpp"

namespace gemsd::node {

/// Per-node main-memory database buffer: LRU replacement, dirty-page
/// write-back on eviction (asynchronous, with the in-flight copy still
/// servable), logging, and the CPU cost model for I/O — 3000 instructions
/// per disk I/O issued asynchronously vs 300 instructions plus a
/// *synchronous* CPU hold for GEM page accesses (Section 3.2 / Table 4.1).
class BufferManager {
 public:
  BufferManager(sim::Scheduler& sched, const SystemConfig& cfg, NodeId node,
                CpuSet& cpu, storage::StorageManager& storage,
                Metrics& metrics);

  /// Called when an eviction write-back completes (page, version written) —
  /// the protocol clears the coherency directory's owner field.
  void set_writeback_hook(std::function<void(NodeId, PageId, SeqNo)> fn) {
    writeback_done_ = std::move(fn);
  }

  // --- copy inspection (no timing) ---
  /// Version of the locally cached copy (frame or in-flight write-back).
  std::optional<SeqNo> cached_seqno(PageId p) const;
  bool has_copy(PageId p) const;
  bool frame_dirty(PageId p) const;

  // --- access paths (invoked by the transaction manager / protocols) ---
  /// Valid cached copy: LRU promote + hit accounting.
  void hit(PageId p);
  /// LRU promote only — no hit/miss accounting (repeated record access to a
  /// page the transaction already fixed, e.g. BRANCH after TELLER in the
  /// same clustered page; the paper counts page accesses, not record hits).
  void touch(PageId p);
  /// Account a miss/invalidation without doing the I/O here (the protocol
  /// supplies the page by transfer).
  void count_miss(PageId p, bool invalidation);
  /// Read the current version from the partition's storage and install it
  /// (counts as a miss; concurrent reads of the same page are merged into
  /// one physical I/O).
  sim::Task<void> read_from_storage(Txn* txn, PageId p, SeqNo seqno,
                                    bool count = true);
  /// Install a copy obtained without storage I/O (page transfer, fresh
  /// append page).
  void install(PageId p, SeqNo seqno, bool dirty);
  /// Mark modified in place (caller holds the write lock).
  void mark_dirty(PageId p);
  /// Commit-time version update for a dirty page; reinstalls the frame if it
  /// was evicted mid-transaction (the committing txn still holds the data).
  void commit_dirty(PageId p, SeqNo new_seqno, bool stays_dirty);
  /// When the node ships its (dirty) copy to another node that takes over
  /// ownership, the local copy stays cached but becomes clean.
  void shipped_copy(PageId p);
  /// Drop a (clean) cached copy — broadcast invalidation received.
  void discard(PageId p) { frames_.erase(p); }
  /// Node crash: volatile buffer contents (and in-flight write-backs) are
  /// lost; the node restarts cold.
  void crash_clear() {
    frames_.clear();
    writeback_.clear();
  }

  /// Write a page to its partition's storage on behalf of a transaction
  /// (FORCE at commit); the frame becomes clean.
  sim::Task<void> force_write(Txn* txn, PageId p);
  /// Append one log page to this node's log (commit phase 1).
  sim::Task<void> write_log(Txn* txn);

  /// Access to a page of an unlocked partition (e.g. HISTORY); fresh_page
  /// indicates a newly allocated append page (installed without a read).
  sim::Task<void> access_unlocked(Txn& txn, PageId p, bool write,
                                  bool fresh_page);

  NodeId node() const { return node_; }
  std::size_t frames_in_use() const { return frames_.size(); }
  std::uint64_t writebacks() const { return writebacks_; }
  /// Slots of the in-flight read table ever used (a finished read's slot is
  /// reused by the next one).
  std::size_t inflight_slots() const { return inflight_.slots(); }

 private:
  struct Frame {
    SeqNo seqno = 0;
    bool dirty = false;
  };
  /// A reader merged into another's in-flight read of the same page; lives
  /// in the waiting reader's coroutine frame.
  struct ReadWaiter {
    std::coroutine_handle<> h;
    ReadWaiter* next = nullptr;
  };
  /// The readers waiting on one in-flight read, in arrival order.
  struct InflightRead {
    ReadWaiter* first = nullptr;
    ReadWaiter* last = nullptr;
  };

  void install_evicting(PageId p, Frame f);
  void evict_one();
  sim::Task<void> writeback_task(PageId p, SeqNo seqno);
  /// Background staging of a disk-read page into the GEM page cache.
  sim::Task<void> stage_into_gem_cache(PageId p, bool dirty);
  /// Device-level read/write with CPU accounting (GEM: synchronous hold).
  sim::Task<void> device_read(Txn* txn, PageId p);
  sim::Task<void> device_write(Txn* txn, PageId p);

  sim::Scheduler& sched_;
  const SystemConfig& cfg_;
  NodeId node_;
  CpuSet& cpu_;
  storage::StorageManager& storage_;
  Metrics& metrics_;

  LruMap<Frame> frames_;
  PageMap<SeqNo> writeback_;  ///< in-flight dirty evictions
  PageMap<InflightRead> inflight_;
  std::function<void(NodeId, PageId, SeqNo)> writeback_done_;
  std::uint64_t writebacks_ = 0;
};

}  // namespace gemsd::node

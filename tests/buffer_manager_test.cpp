// Unit tests for the per-node buffer manager: LRU replacement, dirty
// write-back with servable in-flight copies, install/commit transitions,
// in-flight read merging, GEM synchronous I/O accounting, and the unlocked
// (HISTORY) access path.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "node/buffer_manager.hpp"
#include "node/cpu.hpp"
#include "sim/scheduler.hpp"
#include "storage/storage_manager.hpp"

namespace gemsd::node {
namespace {

using sim::Scheduler;
using sim::Task;

struct Fixture {
  SystemConfig cfg = make_debit_credit_config();
  Scheduler sched;
  sim::Rng rng{1};
  Metrics metrics{3};
  std::unique_ptr<storage::StorageManager> storage;
  std::unique_ptr<CpuSet> cpu;
  std::unique_ptr<BufferManager> bm;

  explicit Fixture(int buffer_pages = 4) {
    cfg.nodes = 1;
    cfg.buffer_pages = buffer_pages;
    storage = std::make_unique<storage::StorageManager>(sched, rng, cfg);
    cpu = std::make_unique<CpuSet>(sched, cfg.cpu, "cpu");
    bm = std::make_unique<BufferManager>(sched, cfg, 0, *cpu, *storage,
                                         metrics);
  }
};

PageId bt(std::int64_t n) { return PageId{DebitCreditIds::kBranchTeller, n}; }

TEST(BufferManager, InstallAndLookup) {
  Fixture f;
  f.bm->install(bt(1), 5, false);
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  EXPECT_EQ(f.bm->cached_seqno(bt(1)), 5u);
  EXPECT_FALSE(f.bm->frame_dirty(bt(1)));
  EXPECT_FALSE(f.bm->has_copy(bt(2)));
}

TEST(BufferManager, LruEvictionOrder) {
  Fixture f(2);
  f.bm->install(bt(1), 0, false);
  f.bm->install(bt(2), 0, false);
  f.bm->touch(bt(1));            // 2 becomes LRU
  f.bm->install(bt(3), 0, false);
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  EXPECT_FALSE(f.bm->has_copy(bt(2)));
  EXPECT_TRUE(f.bm->has_copy(bt(3)));
}

TEST(BufferManager, DirtyEvictionWritesBackAndStaysServable) {
  Fixture f(2);
  bool hook_fired = false;
  SeqNo hook_seq = 0;
  f.bm->set_writeback_hook([&](NodeId n, PageId p, SeqNo s) {
    EXPECT_EQ(n, 0);
    EXPECT_EQ(p, bt(1));
    hook_seq = s;
    hook_fired = true;
  });
  f.bm->install(bt(1), 7, true);
  f.bm->install(bt(2), 0, false);
  f.bm->install(bt(3), 0, false);  // evicts dirty page 1
  // The in-flight copy remains visible until the write completes.
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  EXPECT_EQ(f.bm->cached_seqno(bt(1)), 7u);
  f.sched.run_all();
  EXPECT_TRUE(hook_fired);
  EXPECT_EQ(hook_seq, 7u);
  EXPECT_FALSE(f.bm->has_copy(bt(1)));
  EXPECT_EQ(f.metrics.evict_writes.value(), 1u);
}

TEST(BufferManager, HitReframesFromWriteback) {
  Fixture f(2);
  f.bm->install(bt(1), 3, true);
  f.bm->install(bt(2), 0, false);
  f.bm->install(bt(3), 0, false);  // page 1 -> write-back table
  f.bm->hit(bt(1));                // re-frame as clean
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  f.sched.run_all();
  // After write-back completes the re-framed clean copy survives.
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  EXPECT_FALSE(f.bm->frame_dirty(bt(1)));
}

Task<void> read_task(BufferManager& bm, Txn* t, PageId p, SeqNo s) {
  co_await bm.read_from_storage(t, p, s);
}

TEST(BufferManager, ReadFromStorageInstallsCleanAtSeqno) {
  Fixture f(64);
  Txn t;
  t.node = 0;
  for (int i = 0; i < 20; ++i) {
    f.sched.spawn(read_task(*f.bm, &t, bt(i), 9));
    f.sched.run_all();
  }
  EXPECT_EQ(f.bm->cached_seqno(bt(1)), 9u);
  EXPECT_FALSE(f.bm->frame_dirty(bt(1)));
  EXPECT_GT(t.t_io, 20 * 5e-3);  // paid ~16.4 ms per disk read on average
  EXPECT_EQ(f.metrics.misses[0].value(), 20u);
}

TEST(BufferManager, ConcurrentReadsMergeIntoOnePhysicalIO) {
  Fixture f;
  Txn a, b;
  f.sched.spawn(read_task(*f.bm, &a, bt(1), 1));
  f.sched.spawn(read_task(*f.bm, &b, bt(1), 1));
  f.sched.run_all();
  auto* grp = f.storage->group(DebitCreditIds::kBranchTeller);
  EXPECT_EQ(grp->reads(), 1u);              // one device read
  EXPECT_EQ(f.metrics.misses[0].value(), 2u);  // but two logical misses
}

Task<void> read_then_log(BufferManager& bm, PageId p, int id,
                         std::vector<int>& order) {
  co_await bm.read_from_storage(nullptr, p, 1);
  order.push_back(id);
}

TEST(BufferManager, MergedReadersResumeInArrivalOrderAndSlotIsReused) {
  Fixture f;
  std::vector<int> order;
  // Three readers of one page: the first issues the device read, the other
  // two wait on it and resume after it, in the order they arrived.
  for (int id = 0; id < 3; ++id) {
    f.sched.spawn(read_then_log(*f.bm, bt(7), id, order));
  }
  f.sched.run_all();
  auto* grp = f.storage->group(DebitCreditIds::kBranchTeller);
  EXPECT_EQ(grp->reads(), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(f.bm->inflight_slots(), 1u);
  // A later read of another page reuses the finished read's slot.
  f.sched.spawn(read_then_log(*f.bm, bt(8), 3, order));
  f.sched.run_all();
  EXPECT_EQ(grp->reads(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(f.bm->inflight_slots(), 1u);
}

TEST(BufferManager, MarkDirtyAndCommitTransitions) {
  Fixture f;
  f.bm->install(bt(1), 4, false);
  f.bm->mark_dirty(bt(1));
  EXPECT_TRUE(f.bm->frame_dirty(bt(1)));
  f.bm->commit_dirty(bt(1), 5, /*stays_dirty=*/true);
  EXPECT_EQ(f.bm->cached_seqno(bt(1)), 5u);
  EXPECT_TRUE(f.bm->frame_dirty(bt(1)));
  f.bm->shipped_copy(bt(1));
  EXPECT_FALSE(f.bm->frame_dirty(bt(1)));
}

TEST(BufferManager, CommitDirtyReinstallsEvictedFrame) {
  Fixture f(2);
  f.bm->install(bt(1), 1, true);
  f.bm->install(bt(2), 0, false);
  f.bm->install(bt(3), 0, false);  // evicts bt(1) into write-back
  f.bm->commit_dirty(bt(1), 2, true);
  EXPECT_TRUE(f.bm->has_copy(bt(1)));
  EXPECT_EQ(f.bm->cached_seqno(bt(1)), 2u);
  EXPECT_TRUE(f.bm->frame_dirty(bt(1)));
}

Task<void> force_task(BufferManager& bm, Txn* t, PageId p) {
  co_await bm.force_write(t, p);
}

TEST(BufferManager, ForceWriteCleansFrame) {
  Fixture f;
  Txn t;
  f.bm->install(bt(1), 1, true);
  f.sched.spawn(force_task(*f.bm, &t, bt(1)));
  f.sched.run_all();
  EXPECT_FALSE(f.bm->frame_dirty(bt(1)));
  EXPECT_EQ(f.metrics.force_writes.value(), 1u);
  EXPECT_GT(t.t_io, 0.0);
  EXPECT_EQ(f.storage->group(DebitCreditIds::kBranchTeller)->writes(), 1u);
}

Task<void> log_task(BufferManager& bm, Txn* t) { co_await bm.write_log(t); }

TEST(BufferManager, LogWriteUsesLogDevice) {
  Fixture f;
  Txn t;
  for (int i = 0; i < 20; ++i) {
    f.sched.spawn(log_task(*f.bm, &t));
    f.sched.run_all();
  }
  EXPECT_EQ(f.storage->log_group(0).writes(), 20u);
  EXPECT_GT(t.t_io, 20 * 2e-3);  // ~6.4 ms class per log write
  EXPECT_LT(t.t_io, 20 * 30e-3);
}

Task<void> unlocked_task(BufferManager& bm, Txn* t, PageId p, bool w,
                         bool fresh) {
  co_await bm.access_unlocked(*t, p, w, fresh);
}

TEST(BufferManager, UnlockedFreshPageIsMissWithoutIO) {
  Fixture f;
  Txn t;
  const PageId h{DebitCreditIds::kHistory, 100};
  f.sched.spawn(unlocked_task(*f.bm, &t, h, true, /*fresh=*/true));
  f.sched.run_all();
  EXPECT_EQ(f.metrics.misses[DebitCreditIds::kHistory].value(), 1u);
  EXPECT_TRUE(f.bm->frame_dirty(h));
  EXPECT_DOUBLE_EQ(t.t_io, 0.0);  // no read for a newly allocated page
  EXPECT_EQ(t.dirty_unlocked.size(), 1u);
  // Subsequent appends to the same page are hits.
  f.sched.spawn(unlocked_task(*f.bm, &t, h, true, false));
  f.sched.run_all();
  EXPECT_EQ(f.metrics.hits[DebitCreditIds::kHistory].value(), 1u);
}

TEST(BufferManager, GemResidentPartitionReadsAreSynchronousAndFast) {
  Fixture f;
  f.cfg.partitions[DebitCreditIds::kBranchTeller].storage = StorageKind::Gem;
  // Rebuild the storage routing with the new allocation.
  f.storage = std::make_unique<storage::StorageManager>(f.sched, f.rng, f.cfg);
  f.bm = std::make_unique<BufferManager>(f.sched, f.cfg, 0, *f.cpu, *f.storage,
                                         f.metrics);
  Txn t;
  f.sched.spawn(read_task(*f.bm, &t, bt(1), 1));
  f.sched.run_all();
  EXPECT_LT(t.t_io, 1e-3);  // 300 instr + 50 us, far below any disk time
  EXPECT_EQ(f.storage->gem().page_ops(), 1u);
}

}  // namespace
}  // namespace gemsd::node

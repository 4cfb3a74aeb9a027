// Tests for Update-mode locks: compatibility matrix, upgrade paths, and the
// system-level property they exist for — read-then-write transactions stop
// deadlocking against each other.
#include <gtest/gtest.h>

#include "cc/lock_table.hpp"
#include "core/system.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using cc::LockTable;
using Outcome = LockTable::Outcome;
const PageId P{0, 1};

TEST(UpdateLock, CompatibilityMatrix) {
  EXPECT_TRUE(lock_compatible(LockMode::Read, LockMode::Read));
  EXPECT_TRUE(lock_compatible(LockMode::Read, LockMode::Update));
  EXPECT_TRUE(lock_compatible(LockMode::Update, LockMode::Read));
  EXPECT_FALSE(lock_compatible(LockMode::Update, LockMode::Update));
  EXPECT_FALSE(lock_compatible(LockMode::Update, LockMode::Write));
  EXPECT_FALSE(lock_compatible(LockMode::Write, LockMode::Read));
  EXPECT_FALSE(lock_compatible(LockMode::Write, LockMode::Write));
}

TEST(UpdateLock, StrengthOrdering) {
  EXPECT_TRUE(lock_covers(LockMode::Write, LockMode::Update));
  EXPECT_TRUE(lock_covers(LockMode::Update, LockMode::Read));
  EXPECT_FALSE(lock_covers(LockMode::Read, LockMode::Update));
  EXPECT_FALSE(lock_covers(LockMode::Update, LockMode::Write));
}

TEST(UpdateLock, UpdatersExcludeEachOtherButShareWithReaders) {
  LockTable lt;
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Update, {}), Outcome::Granted);
  EXPECT_EQ(lt.acquire(P, 2, 0, LockMode::Read, {}), Outcome::Granted);
  int g3 = 0;
  EXPECT_EQ(lt.acquire(P, 3, 0, LockMode::Update, [&] { ++g3; }),
            Outcome::Waiting);
  lt.release(P, 1);
  EXPECT_EQ(g3, 1);  // second updater admitted once the first left
  EXPECT_TRUE(lt.holds(P, 2, LockMode::Read));
}

TEST(UpdateLock, UpdateToWriteWaitsForReaders) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Update, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Read, {}), Outcome::Granted);
  int up = 0;
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Write, [&] { ++up; }),
            Outcome::Waiting);
  lt.release(P, 2);
  EXPECT_EQ(up, 1);
  EXPECT_TRUE(lt.holds(P, 1, LockMode::Write));
}

TEST(UpdateLock, NoDeadlockBetweenTwoUpdaters) {
  // The pattern that deadlocks with plain R->W upgrades: both hold R, both
  // upgrade. With U locks the second updater waits up front — no cycle.
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Update, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Update, {}), Outcome::Waiting);
  EXPECT_FALSE(lt.creates_deadlock(2));
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  lt.release(P, 1);
  EXPECT_TRUE(lt.holds(P, 2, LockMode::Update));
}

TEST(UpdateLock, ReadToUpdateUpgrade) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Read, {}), Outcome::Granted);
  // R -> U in place: only another updater would block, readers don't.
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Update, {}), Outcome::Granted);
  EXPECT_TRUE(lt.holds(P, 1, LockMode::Update));
  EXPECT_FALSE(lt.holds(P, 1, LockMode::Write));
}

// --- system level: the stress pattern that thrashed with R->W upgrades ---

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;
PageId pg(std::int64_t n) { return PageId{kT, n}; }

SystemConfig hot_cfg(Coupling c) {
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.coupling = c;
  cfg.update = UpdateStrategy::NoForce;
  cfg.buffer_pages = 16;
  cfg.mpl = 200;
  cfg.partitions.resize(1);
  cfg.partitions[0].name = "T";
  cfg.partitions[0].pages_per_unit = 64;
  cfg.partitions[0].locked = true;
  cfg.partitions[0].disks_per_unit = 8;
  return cfg;
}
class ModGla : public workload::GlaMap {
 public:
  NodeId gla(PageId p) const override {
    return static_cast<NodeId>(p.page % 2);
  }
};
struct NullGen : workload::WorkloadGenerator {
  TxnSpec next(sim::Rng&) override { return {}; }
  int num_types() const override { return 1; }
};

std::uint64_t run_hot(Coupling c, bool use_intent) {
  SystemConfig cfg = hot_cfg(c);
  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(2);
  wl.gla = std::make_unique<ModGla>();
  System sys(cfg, std::move(wl));
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    TxnSpec t;
    const std::int64_t page = rng.uniform_int(0, 3);
    t.refs.push_back(PageRef{pg(page), false, use_intent});
    t.refs.push_back(PageRef{pg(page), true, false});
    sys.submit(static_cast<NodeId>(i % 2), t);
  }
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 200u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  return sys.metrics().deadlocks.value();
}

TEST(UpdateLock, IntentEliminatesUpgradeDeadlocksGem) {
  const auto without = run_hot(Coupling::GemLocking, false);
  const auto with = run_hot(Coupling::GemLocking, true);
  EXPECT_GT(without, 100u);  // the thrash the plain upgrades cause
  EXPECT_EQ(with, 0u);       // update intent removes the cycles entirely
}

TEST(UpdateLock, IntentEliminatesUpgradeDeadlocksPcl) {
  const auto without = run_hot(Coupling::PrimaryCopy, false);
  const auto with = run_hot(Coupling::PrimaryCopy, true);
  EXPECT_GT(without, with);
  EXPECT_EQ(with, 0u);
}

}  // namespace
}  // namespace gemsd

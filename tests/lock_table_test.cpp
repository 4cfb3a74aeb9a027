// Unit tests for the logical lock table: compatibility, FIFO waiting,
// read->write upgrades, cancellation, and wait-for-graph deadlock detection.
#include <gtest/gtest.h>

#include "cc/lock_table.hpp"

namespace gemsd::cc {
namespace {

const PageId P{0, 1};
const PageId Q{0, 2};

using Outcome = LockTable::Outcome;

TEST(LockTable, ReadersShare) {
  LockTable lt;
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  EXPECT_EQ(lt.acquire(P, 2, 1, LockMode::Read, {}), Outcome::Granted);
  EXPECT_TRUE(lt.holds(P, 1, LockMode::Read));
  EXPECT_TRUE(lt.holds(P, 2, LockMode::Read));
  EXPECT_FALSE(lt.holds(P, 1, LockMode::Write));
}

TEST(LockTable, WriterExcludesAndFifoGrants) {
  LockTable lt;
  int granted2 = 0, granted3 = 0;
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  EXPECT_EQ(lt.acquire(P, 2, 0, LockMode::Read, [&] { ++granted2; }),
            Outcome::Waiting);
  EXPECT_EQ(lt.acquire(P, 3, 0, LockMode::Read, [&] { ++granted3; }),
            Outcome::Waiting);
  EXPECT_EQ(lt.conflicts(), 2u);
  lt.release(P, 1);
  // Both readers become grantable together.
  EXPECT_EQ(granted2, 1);
  EXPECT_EQ(granted3, 1);
  EXPECT_TRUE(lt.holds(P, 2, LockMode::Read));
  EXPECT_TRUE(lt.holds(P, 3, LockMode::Read));
}

TEST(LockTable, ReaderQueuesBehindWaitingWriter) {
  LockTable lt;
  int w = 0, r = 0;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, [&] { ++w; }),
            Outcome::Waiting);
  // FIFO fairness: a later reader must not overtake the waiting writer.
  ASSERT_EQ(lt.acquire(P, 3, 0, LockMode::Read, [&] { ++r; }),
            Outcome::Waiting);
  lt.release(P, 1);
  EXPECT_EQ(w, 1);
  EXPECT_EQ(r, 0);  // writer holds now
  lt.release(P, 2);
  EXPECT_EQ(r, 1);
}

TEST(LockTable, UpgradeGrantedWhenSoleHolder) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  EXPECT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  EXPECT_TRUE(lt.holds(P, 1, LockMode::Write));
}

TEST(LockTable, UpgradeWaitsForOtherReadersAndJumpsQueue) {
  LockTable lt;
  int up = 0, other = 0;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Read, {}), Outcome::Granted);
  // Txn 3 queues as a plain writer; then txn 1 upgrades — the upgrade must
  // be served before the queued writer.
  ASSERT_EQ(lt.acquire(P, 3, 0, LockMode::Write, [&] { ++other; }),
            Outcome::Waiting);
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, [&] { ++up; }),
            Outcome::Waiting);
  lt.release(P, 2);  // txn 1 now the sole holder -> upgrade fires
  EXPECT_EQ(up, 1);
  EXPECT_EQ(other, 0);
  EXPECT_TRUE(lt.holds(P, 1, LockMode::Write));
  lt.release(P, 1);
  EXPECT_EQ(other, 1);
}

TEST(LockTable, CancelWaitRemovesAndPromotes) {
  LockTable lt;
  int g3 = 0;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  ASSERT_EQ(lt.acquire(P, 3, 0, LockMode::Read, [&] { ++g3; }),
            Outcome::Waiting);
  EXPECT_TRUE(lt.cancel_wait(P, 2));
  EXPECT_FALSE(lt.waiting_on(2).has_value());
  lt.release(P, 1);
  EXPECT_EQ(g3, 1);  // reader no longer blocked by the cancelled writer
}

TEST(LockTable, WaitingOnAndBlockers) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  ASSERT_EQ(lt.waiting_on(2), P);
  EXPECT_EQ(lt.blockers(P, 2), std::vector<TxnId>{1});
  EXPECT_FALSE(lt.waiting_on(1).has_value());
}

TEST(LockTable, DeadlockTwoTxnCycle) {
  LockTable lt;
  // T1 holds P, T2 holds Q; T1 waits for Q, then T2 waiting for P closes the
  // cycle.
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(Q, 2, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(Q, 1, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_FALSE(lt.creates_deadlock(1));
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_TRUE(lt.creates_deadlock(2));
}

TEST(LockTable, DeadlockUpgradeCycle) {
  LockTable lt;
  // Classic: two readers both upgrade.
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Read, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Read, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Waiting);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_TRUE(lt.creates_deadlock(2));
}

TEST(LockTable, NoDeadlockOnChain) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(P, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  ASSERT_EQ(lt.acquire(P, 3, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_FALSE(lt.creates_deadlock(3));  // chain, no cycle
}

TEST(LockTable, ThreeTxnCycle) {
  LockTable lt;
  const PageId R{0, 3};
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(Q, 2, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(R, 3, 0, LockMode::Write, {}), Outcome::Granted);
  ASSERT_EQ(lt.acquire(Q, 1, 0, LockMode::Write, {}), Outcome::Waiting);
  ASSERT_EQ(lt.acquire(R, 2, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_FALSE(lt.creates_deadlock(2));
  ASSERT_EQ(lt.acquire(P, 3, 0, LockMode::Write, {}), Outcome::Waiting);
  EXPECT_TRUE(lt.creates_deadlock(3));
}

TEST(LockTable, EntriesRemovedWhenEmpty) {
  LockTable lt;
  ASSERT_EQ(lt.acquire(P, 1, 0, LockMode::Write, {}), Outcome::Granted);
  EXPECT_EQ(lt.locked_pages(), 1u);
  lt.release(P, 1);
  EXPECT_EQ(lt.locked_pages(), 0u);
}

TEST(LockTable, RequestCountersTrack) {
  LockTable lt;
  lt.acquire(P, 1, 0, LockMode::Read, {});
  lt.acquire(P, 2, 0, LockMode::Read, {});
  lt.acquire(P, 3, 0, LockMode::Write, {});
  EXPECT_EQ(lt.requests(), 3u);
  EXPECT_EQ(lt.conflicts(), 1u);
  lt.reset_stats();
  EXPECT_EQ(lt.requests(), 0u);
}

}  // namespace
}  // namespace gemsd::cc

/// \file test_lock_table.cpp
/// \brief Tests for the 2PL lock table under its wait-die policy (paper §5
/// concurrency-control extension).  The suite keeps the name of the lock
/// manager these semantics were first specified against.
#include <gtest/gtest.h>

#include "cc/lock_table.hpp"
#include "util/check.hpp"

namespace voodb::cc {
namespace {

constexpr bool kRead = false;
constexpr bool kWrite = true;

class LockManagerTest : public ::testing::Test {
 protected:
  desp::Scheduler sched_;
  LockTable lm_{&sched_, ProtocolKind::kWaitDie};
};

TEST_F(LockManagerTest, SharedLocksAreCompatible) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  int grants = 0;
  lm_.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_EQ(grants, 2);
  EXPECT_TRUE(lm_.Holds(1, 10, LockMode::kShared));
  EXPECT_TRUE(lm_.Holds(2, 10, LockMode::kShared));
  EXPECT_EQ(lm_.stats().immediate_grants, 2u);
}

TEST_F(LockManagerTest, ExclusiveConflictsMakeOlderWait) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  bool young_granted = false;
  bool old_granted = false;
  lm_.Access(2, 10, kWrite, [&] { young_granted = true; }, [] { FAIL(); });
  sched_.Run();
  ASSERT_TRUE(young_granted);
  // The older transaction may wait for the younger holder.
  lm_.Access(1, 10, kWrite, [&] { old_granted = true; },
             [] { FAIL() << "older transaction must not die"; });
  sched_.Run();
  EXPECT_FALSE(old_granted);
  EXPECT_EQ(lm_.stats().waits, 1u);
  // Release wakes the waiter.
  lm_.Abort(2);
  sched_.Run();
  EXPECT_TRUE(old_granted);
  EXPECT_TRUE(lm_.Holds(1, 10, LockMode::kExclusive));
}

TEST_F(LockManagerTest, YoungerRequesterDies) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kRead, [] { FAIL() << "must die"; }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
  EXPECT_EQ(lm_.stats().aborts_wait_die, 1u);
}

TEST_F(LockManagerTest, ReacquiringHeldLockIsImmediate) {
  lm_.Begin(1, 1);
  int grants = 0;
  lm_.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_EQ(grants, 3);
  EXPECT_EQ(lm_.HeldLocks(1), 1u);
}

TEST_F(LockManagerTest, SharedToExclusiveUpgrade) {
  lm_.Begin(1, 1);
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  EXPECT_FALSE(lm_.Holds(1, 10, LockMode::kExclusive));
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(lm_.Holds(1, 10, LockMode::kExclusive));
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, UpgradeConflictFollowsWaitDie) {
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  // The younger transaction upgrading against an older S-holder dies.
  bool died = false;
  lm_.Access(2, 10, kWrite, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
}

TEST_F(LockManagerTest, ReleaseAllWakesQueueInFifoOrder) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  std::vector<int> order;
  // Both older transactions wait (3 is youngest).
  lm_.Access(1, 10, kRead, [&] { order.push_back(1); }, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [&] { order.push_back(2); }, [] { FAIL(); });
  sched_.Run();
  EXPECT_TRUE(order.empty());
  lm_.Abort(3);
  sched_.Run();
  // Both shared waiters wake together, FIFO.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(LockManagerTest, SharedWaitersDoNotStarveBehindExclusive) {
  // Ages: the S requester (1) is older than the X waiter (2) it queues
  // behind, so it may wait (a younger one would die — see below).
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool x_granted = false;
  bool s_granted = false;
  lm_.Access(2, 10, kWrite, [&] { x_granted = true; }, [] { FAIL(); });
  lm_.Access(1, 10, kRead, [&] { s_granted = true; }, [] { FAIL(); });
  sched_.Run();
  // FIFO head is the X request; the S behind it must not jump the queue.
  EXPECT_FALSE(x_granted);
  EXPECT_FALSE(s_granted);
  lm_.Abort(3);
  sched_.Run();
  EXPECT_TRUE(x_granted);
  EXPECT_FALSE(s_granted);  // still behind the exclusive holder
  lm_.Abort(2);
  sched_.Run();
  EXPECT_TRUE(s_granted);
}

TEST_F(LockManagerTest, YoungerRequesterDiesBehindOlderQueuedExclusive) {
  // Queue positions are wait targets: a younger S request that would
  // park behind an older conflicting X waiter dies immediately (this is
  // what prevents cycles through FIFO ordering).
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Begin(3, 3);
  lm_.Access(3, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kRead, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);
}

TEST_F(LockManagerTest, UpgradeBypassesParkedWaitersWhenSoleHolder) {
  // T1 (younger) is the sole S holder; T2 (older) parks an X request
  // behind it.  T1's S->X upgrade must jump the queue: upgrades are
  // granted ahead of parked waiters when the holders are compatible,
  // otherwise the upgrade and the waiter deadlock forever.
  lm_.Begin(1, 2);  // younger holder
  lm_.Begin(2, 1);  // older waiter
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool waiter_granted = false;
  lm_.Access(2, 10, kWrite, [&] { waiter_granted = true; },
             [] { FAIL() << "older waiter must not die"; });
  sched_.Run();
  ASSERT_FALSE(waiter_granted);
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; },
             [] { FAIL() << "sole-holder upgrade must not die"; });
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(lm_.Holds(1, 10, LockMode::kExclusive));
  EXPECT_FALSE(waiter_granted);  // still parked behind the upgraded X
  lm_.Abort(1);
  sched_.Run();
  EXPECT_TRUE(waiter_granted);
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, ParkedUpgradeCompletesWhenOtherHolderReleases) {
  // Both hold S; the older one's upgrade parks at the queue FRONT and a
  // younger request behind it dies (the parked upgrade is a wait-die
  // target).  Releasing the other S holder completes the upgrade.
  lm_.Begin(1, 1);  // older, will upgrade
  lm_.Begin(2, 2);  // younger co-holder
  lm_.Begin(3, 3);  // youngest, dies behind the upgrade
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; },
             [] { FAIL() << "older upgrade must wait, not die"; });
  sched_.Run();
  EXPECT_FALSE(upgraded);
  EXPECT_EQ(lm_.stats().waits, 1u);
  bool died = false;
  lm_.Access(3, 10, kRead, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  EXPECT_TRUE(died);  // parked X upgrade ahead is older -> die
  lm_.Abort(2);
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(lm_.Holds(1, 10, LockMode::kExclusive));
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, UpgradeDeathLeavesSharedHoldReleasable) {
  // Wait-die kills a younger upgrade attempt mid-transaction: the S hold
  // must survive the death (the TM aborts and releases explicitly), and
  // the release must then clean it up and unblock the other upgrader.
  lm_.Begin(1, 1);  // older
  lm_.Begin(2, 2);  // younger
  lm_.Access(1, 10, kRead, [] {}, [] { FAIL(); });
  lm_.Access(2, 10, kRead, [] {}, [] { FAIL(); });
  sched_.Run();
  bool died = false;
  lm_.Access(2, 10, kWrite, [] { FAIL(); }, [&] { died = true; });
  sched_.Run();
  ASSERT_TRUE(died);
  EXPECT_TRUE(lm_.Holds(2, 10, LockMode::kShared));  // hold survives
  bool upgraded = false;
  lm_.Access(1, 10, kWrite, [&] { upgraded = true; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_FALSE(upgraded);  // still blocked by T2's S
  lm_.Abort(2);  // the TM's abort path
  sched_.Run();
  EXPECT_TRUE(upgraded);
  EXPECT_EQ(lm_.ActiveTransactions(), 1u);
  lm_.Abort(1);
  EXPECT_EQ(lm_.ActiveTransactions(), 0u);
}

TEST_F(LockManagerTest, ReRequestingHeldExclusiveNeverSamplesAWait) {
  // Re-requesting a held X (in either mode) is a pure re-grant: no new
  // holder entry, no wait-time sample, only the immediate-grant counter.
  lm_.Begin(1, 1);
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  const uint64_t samples_after_grant = lm_.stats().wait_times.count();
  int grants = 0;
  lm_.Access(1, 10, kWrite, [&] { ++grants; }, [] { FAIL(); });
  lm_.Access(1, 10, kRead, [&] { ++grants; }, [] { FAIL(); });
  sched_.Run();
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(lm_.HeldLocks(1), 1u);
  EXPECT_EQ(lm_.stats().immediate_grants, 3u);
  EXPECT_EQ(lm_.stats().wait_times.count(), samples_after_grant);
  EXPECT_EQ(lm_.stats().upgrades, 0u);
}

TEST_F(LockManagerTest, WaitTimeMeasured) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Access(2, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  lm_.Access(1, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Schedule(25.0, [&] { lm_.Abort(2); });
  sched_.Run();
  EXPECT_DOUBLE_EQ(lm_.stats().wait_times.max(), 25.0);
}

TEST_F(LockManagerTest, ReleaseAllDropsQueuedRequests) {
  lm_.Begin(1, 1);
  lm_.Begin(2, 2);
  lm_.Access(2, 10, kWrite, [] {}, [] { FAIL(); });
  sched_.Run();
  bool granted = false;
  lm_.Access(1, 10, kWrite, [&] { granted = true; }, [] { FAIL(); });
  sched_.Run();
  // Transaction 1 gives up (external abort) while waiting.
  lm_.Abort(1);
  lm_.Abort(2);
  sched_.Run();
  EXPECT_FALSE(granted);  // the stale waiter was dropped
  EXPECT_EQ(lm_.ActiveTransactions(), 0u);
}

TEST_F(LockManagerTest, UsageErrors) {
  EXPECT_THROW(lm_.Access(9, 1, kRead, [] {}, [] {}), util::Error);
  lm_.Begin(5, 1);
  EXPECT_THROW(lm_.Begin(5, 2), util::Error);
  EXPECT_THROW(lm_.Abort(6), util::Error);
  EXPECT_EQ(lm_.HeldLocks(6), 0u);
}

TEST(LockModeNames, ToString) {
  EXPECT_STREQ(ToString(LockMode::kShared), "S");
  EXPECT_STREQ(ToString(LockMode::kExclusive), "X");
}

}  // namespace
}  // namespace voodb::cc

/// \file test_lock_table.cpp
/// \brief Tests for the 2PL lock table under its wait-die policy (paper §5
/// concurrency-control extension).  The suite keeps the name of the lock
/// manager these semantics were first specified against.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cc/lock_table.hpp"
#include "desp/random.hpp"
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

/// Random Begin/Access/Commit/Abort interleavings under wait-die.  After
/// every call, every parked request must satisfy the wait-die rule
/// against everything ahead of it: it is older than every conflicting
/// holder and every conflicting request ahead in the queue.  Wait-die
/// decides at enqueue time only; this pins that no later grant from the
/// queue or immediate S->X upgrade puts an older conflict in front of a
/// parked request.  A parked request also only ever receives a grant, as
/// a scheduled event.
TEST(LockTable, WaitDieParkedWaitersStayOlderThanConflictsAhead) {
  constexpr uint64_t kTxns = 4;
  constexpr ocb::Oid kObjects[] = {10, 11};
  enum class Phase { kIdle, kReady, kParked, kDecided, kAborted };
  struct Txn {
    Phase phase = Phase::kIdle;
    uint64_t age = 0;
  };
  uint64_t parked_checks = 0;
  for (uint64_t seed = 0; seed < 4000; ++seed) {
    std::array<Txn, kTxns + 1> txns{};  // ids 1..kTxns
    bool in_access = false;
    desp::Scheduler sched;
    LockTable lm(&sched, ProtocolKind::kWaitDie);
    desp::RandomStream rng(seed);
    uint64_t clock = 0;
    const auto is_parked = [&](uint64_t txn) {
      for (const ocb::Oid oid : kObjects) {
        for (const auto& w : lm.Parked(oid)) {
          if (w.txn == txn) return true;
        }
      }
      return false;
    };
    const auto mode_of = [&](uint64_t txn, ocb::Oid oid) {
      if (lm.Holds(txn, oid, LockMode::kExclusive)) return 2;
      return lm.Holds(txn, oid, LockMode::kShared) ? 1 : 0;
    };
    const auto check = [&] {
      for (const ocb::Oid oid : kObjects) {
        const std::vector<LockTable::ParkedRequest> queue = lm.Parked(oid);
        for (size_t pos = 0; pos < queue.size(); ++pos) {
          const LockTable::ParkedRequest& w = queue[pos];
          ASSERT_EQ(txns[w.txn].phase, Phase::kParked) << "txn " << w.txn;
          const bool x = w.mode == LockMode::kExclusive;
          const uint64_t age = txns[w.txn].age;
          for (uint64_t h = 1; h <= kTxns; ++h) {
            const int held = h == w.txn ? 0 : mode_of(h, oid);
            if (held == 0 || (!x && held == 1)) continue;
            EXPECT_LT(age, txns[h].age)
                << "seed " << seed << ": txn " << w.txn
                << " parked behind older holder " << h;
          }
          for (size_t ahead = 0; ahead < pos; ++ahead) {
            const LockTable::ParkedRequest& q = queue[ahead];
            if (q.txn == w.txn) continue;
            if (!x && q.mode == LockMode::kShared) continue;
            EXPECT_LT(age, txns[q.txn].age)
                << "seed " << seed << ": txn " << w.txn
                << " parked behind older request " << q.txn;
          }
          ++parked_checks;
        }
      }
    };
    for (int step = 0; step < 60; ++step) {
      const uint64_t t = 1 + static_cast<uint64_t>(rng.UniformInt(0, 3));
      Txn& txn = txns[t];
      switch (txn.phase) {
        case Phase::kIdle:
          // Half the time a restart, which keeps its age; otherwise a
          // new transaction.
          if (txn.age == 0 || rng.Bernoulli(0.5)) txn.age = ++clock;
          lm.Begin(t, txn.age);
          txn.phase = Phase::kReady;
          break;
        case Phase::kReady: {
          const int action = static_cast<int>(rng.UniformInt(0, 5));
          if (action == 0) {
            lm.Commit(t);
            txn.phase = Phase::kIdle;
          } else if (action == 1) {
            lm.Abort(t);
            txn.phase = Phase::kIdle;
          } else {
            in_access = true;
            lm.Access(
                t, kObjects[rng.UniformInt(0, 1)], rng.Bernoulli(0.5),
                [&txns, &in_access, t] {
                  txns[t].phase = in_access ? Phase::kReady : Phase::kDecided;
                },
                [&txns, &in_access, t] {
                  ASSERT_TRUE(in_access) << "a parked request was killed";
                  txns[t].phase = Phase::kAborted;
                });
            in_access = false;
            if (is_parked(t)) txn.phase = Phase::kParked;
          }
          break;
        }
        case Phase::kParked:
          // An external abort (a failure, say) of a request still parked;
          // one whose grant is on its way waits for it.
          if (is_parked(t) && rng.Bernoulli(0.25)) {
            lm.Abort(t);
            txn.phase = Phase::kIdle;
          }
          break;
        case Phase::kDecided:
          txn.phase = Phase::kReady;
          break;
        case Phase::kAborted:
          lm.Abort(t);  // the TM's abort path
          txn.phase = Phase::kIdle;
          break;
      }
      check();
      // Deliver the scheduled wake-ups now and then.
      if (rng.Bernoulli(0.5)) {
        sched.Run();
        check();
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(parked_checks, 10000u);
}

TEST(LockModeNames, ToString) {
  EXPECT_STREQ(ToString(LockMode::kShared), "S");
  EXPECT_STREQ(ToString(LockMode::kExclusive), "X");
}

}  // namespace
}  // namespace voodb::cc

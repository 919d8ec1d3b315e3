/// \file test_cc.cpp
/// \brief Tests for the pluggable concurrency-control subsystem (src/cc):
/// per-protocol unit semantics, pooled transaction tables, the factory,
/// end-to-end VOODB runs under every protocol with determinism, and
/// golden outputs pinning every protocol's event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "cc/lock_table.hpp"
#include "cc/mvcc.hpp"
#include "cc/occ.hpp"
#include "cc/protocol.hpp"
#include "desp/random.hpp"
#include "ocb/workload.hpp"
#include "util/check.hpp"
#include "voodb/system.hpp"

namespace voodb::cc {
namespace {

// --- Interface / factory -----------------------------------------------------

TEST(CcProtocol, FactoryBuildsEveryKind) {
  desp::Scheduler sched;
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
        ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc,
        ProtocolKind::kOcc}) {
    const auto protocol = MakeProtocol(kind, &sched);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->kind(), kind);
    EXPECT_EQ(protocol->ActiveTransactions(), 0u);
  }
}

TEST(CcProtocol, KindNames) {
  EXPECT_STREQ(ToString(ProtocolKind::kNoWait), "no_wait");
  EXPECT_STREQ(ToString(ProtocolKind::kWaitDie), "wait_die");
  EXPECT_STREQ(ToString(ProtocolKind::kDeadlockDetect), "deadlock_detect");
  EXPECT_STREQ(ToString(ProtocolKind::kMvcc), "mvcc");
  EXPECT_STREQ(ToString(ProtocolKind::kOcc), "occ");
}

TEST(CcProtocol, TwoPhaseKindsShareOneLockTable) {
  desp::Scheduler sched;
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
        ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc,
        ProtocolKind::kOcc}) {
    const auto protocol = MakeProtocol(kind, &sched);
    const bool two_phase = kind == ProtocolKind::kNoWait ||
                           kind == ProtocolKind::kWaitDie ||
                           kind == ProtocolKind::kDeadlockDetect;
    EXPECT_EQ(dynamic_cast<const LockTable*>(protocol.get()) != nullptr,
              two_phase)
        << ToString(kind);
  }
  EXPECT_THROW(LockTable(&sched, ProtocolKind::kMvcc), util::Error);
}

// --- TxnTable pooling --------------------------------------------------------

struct PooledState {
  std::vector<int> payload;
  void Recycle() { payload.clear(); }
};

TEST(CcTxnTable, CapacityBoundedByConcurrencyNotChurn) {
  TxnTable<PooledState> table;
  // 1000 sequential transactions, at most 3 concurrent: the slab must
  // stop growing at the concurrency peak.
  for (uint64_t t = 0; t < 1000; t += 3) {
    table.Begin(t).payload.push_back(1);
    table.Begin(t + 1).payload.push_back(2);
    table.Begin(t + 2);
    table.End(t);
    table.End(t + 1);
    table.End(t + 2);
  }
  EXPECT_EQ(table.active(), 0u);
  EXPECT_LE(table.capacity(), 3u);
}

TEST(CcTxnTable, RecycleClearsState) {
  TxnTable<PooledState> table;
  table.Begin(1).payload.assign(10, 7);
  table.End(1);
  EXPECT_TRUE(table.Begin(2).payload.empty());
  table.End(2);
}

TEST(CcTxnTable, MatchesUnorderedMapUnderRandomChurn) {
  // Random Begin/End/Find/At interleavings checked step by step against
  // a std::unordered_map.  Every id shares its low 24 bits, so an index
  // hashing the low bits would put them all in one probe run.  The
  // active count sweeps up and down through 0..512, so the index sits
  // exactly half full (256 of 512 cells, 512 of 1024) again and again,
  // and ended ids are sometimes begun again (reinsertion after
  // backward-shift deletion).
  TxnTable<PooledState> table;
  std::unordered_map<uint64_t, int> reference;  // id -> payload tag
  std::vector<uint64_t> live;
  std::vector<uint64_t> ended;
  desp::RandomStream rng(28);
  uint64_t next_serial = 1;
  size_t peak = 0;
  size_t target = 512;
  int tag = 0;
  auto check_all = [&] {
    ASSERT_EQ(table.active(), reference.size());
    std::unordered_map<uint64_t, int> visited;
    table.ForEach([&](uint64_t txn, const PooledState& state) {
      ASSERT_EQ(state.payload.size(), 1u);
      EXPECT_TRUE(visited.emplace(txn, state.payload[0]).second)
          << "visited twice: " << txn;
    });
    EXPECT_EQ(visited, reference);
  };
  for (int step = 0; step < 60000; ++step) {
    if (live.size() == target) {
      check_all();
      while (target == live.size()) {
        target = static_cast<size_t>(rng.UniformInt(0, 2)) * 256;
      }
    }
    const bool grow = live.size() < target;
    if (grow) {
      uint64_t txn;
      const bool reuse = !ended.empty() && rng.NextDouble() < 0.3;
      if (reuse) {
        const auto k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ended.size()) - 1));
        txn = ended[k];
        ended[k] = ended.back();
        ended.pop_back();
      } else {
        txn = (next_serial++ << 24) | 0x5A5A5A;
      }
      ASSERT_EQ(table.Find(txn), nullptr);
      table.Begin(txn).payload.push_back(++tag);
      reference[txn] = tag;
      live.push_back(txn);
      peak = std::max(peak, live.size());
    } else {
      const auto k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      const uint64_t txn = live[k];
      live[k] = live.back();
      live.pop_back();
      table.End(txn);
      reference.erase(txn);
      ended.push_back(txn);
    }
    // Probe one live and one ended id after every step.
    if (!live.empty()) {
      const uint64_t txn = live[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(live.size()) - 1))];
      const PooledState* found = table.Find(txn);
      ASSERT_NE(found, nullptr) << txn;
      ASSERT_EQ(found->payload, std::vector<int>{reference.at(txn)});
      ASSERT_EQ(&table.At(txn), found);
    }
    if (!ended.empty()) {
      const uint64_t txn = ended[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(ended.size()) - 1))];
      ASSERT_EQ(table.Find(txn), nullptr) << txn;
      if (step % 64 == 0) {
        EXPECT_THROW(table.At(txn), util::Error);
      }
    }
  }
  check_all();
  EXPECT_EQ(peak, 512u);
  EXPECT_LE(table.capacity(), peak);
  // A duplicate Begin and an End of an unknown id are rejected and leave
  // the table as it was.
  if (live.empty()) {
    table.Begin(77).payload.push_back(++tag);
    reference[77] = tag;
    live.push_back(77);
  }
  const uint64_t txn = live.front();
  EXPECT_THROW(table.Begin(txn), util::Error);
  EXPECT_THROW(table.End(next_serial << 24), util::Error);
  check_all();
}

// --- 2PL no-wait -------------------------------------------------------------

TEST(CcNoWait, SharedCompatibleExclusiveAbortsImmediately) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kNoWait);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  int granted = 0;
  int aborted = 0;
  cc.Access(1, 10, false, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(2, 10, false, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  // A writer against two readers dies on the spot — no queue exists.
  cc.Begin(3, 3);
  cc.Access(3, 10, true, [] { FAIL() << "no-wait must not grant"; },
            [&] { ++aborted; });
  sched.Run();
  EXPECT_EQ(aborted, 1);
  EXPECT_EQ(cc.stats().aborts_no_wait, 1u);
  cc.Abort(3);
  cc.Commit(1);
  cc.Commit(2);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcNoWait, ReleaseMakesTheObjectGrantableAgain) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kNoWait);
  cc.Begin(1, 1);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  cc.Commit(1);
  cc.Begin(2, 2);
  bool ok = false;
  cc.Access(2, 10, true, [&] { ok = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(ok);
  cc.Commit(2);
}

TEST(CcNoWait, UpgradeOfOwnSharedLockSucceedsWhenSoleHolder) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kNoWait);
  cc.Begin(1, 1);
  int granted = 0;
  cc.Access(1, 10, false, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(1, 10, true, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

// --- 2PL wait-die -------------------------------------------------------------

TEST(CcWaitDie, MatchesLockManagerSemantics) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kWaitDie);
  cc.Begin(1, 1);  // older
  cc.Begin(2, 2);  // younger
  bool young_granted = false;
  cc.Access(2, 10, true, [&] { young_granted = true; }, [] { FAIL(); });
  sched.Run();
  ASSERT_TRUE(young_granted);
  // Older waits (wait-die lets the senior queue)...
  bool old_granted = false;
  cc.Access(1, 10, true, [&] { old_granted = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(old_granted);
  // ...and a younger conflicting requester dies.
  cc.Begin(3, 3);
  bool died = false;
  cc.Access(3, 10, false, [] { FAIL(); }, [&] { died = true; });
  sched.Run();
  EXPECT_TRUE(died);
  cc.Abort(3);
  cc.Commit(2);
  sched.Run();
  EXPECT_TRUE(old_granted);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
  EXPECT_EQ(cc.stats().aborts_wait_die, 1u);
  EXPECT_EQ(cc.stats().TotalAborts(), 1u);
  EXPECT_EQ(cc.stats().waits, 1u);
}

// --- 2PL deadlock detection --------------------------------------------------

TEST(CcDeadlockDetect, PlainConflictWaitsInsteadOfDying) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kDeadlockDetect);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool granted = false;
  // A younger waiter would die under wait-die; here it just waits.
  cc.Access(2, 10, true, [&] { granted = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(granted);
  EXPECT_EQ(cc.stats().waits, 1u);
  EXPECT_EQ(cc.stats().TotalAborts(), 0u);
  cc.Commit(1);
  sched.Run();
  EXPECT_TRUE(granted);
  cc.Commit(2);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, TwoTxnCycleAbortsTheClosingRequester) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kDeadlockDetect);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  // T1 holds A, T2 holds B.
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  // T1 -> B parks (no cycle yet).
  bool t1_b = false;
  cc.Access(1, 20, true, [&] { t1_b = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(t1_b);
  // T2 -> A would close the cycle: T2 must be the victim.
  bool t2_died = false;
  cc.Access(2, 10, true, [] { FAIL() << "cycle must abort"; },
            [&] { t2_died = true; });
  sched.Run();
  EXPECT_TRUE(t2_died);
  EXPECT_EQ(cc.stats().aborts_deadlock, 1u);
  // Aborting T2 releases B and wakes T1.
  cc.Abort(2);
  sched.Run();
  EXPECT_TRUE(t1_b);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, ThreeTxnCycleDetectedThroughTheGraph) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kDeadlockDetect);
  for (uint64_t t = 1; t <= 3; ++t) cc.Begin(t, t);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  cc.Access(3, 30, true, [] {}, [] { FAIL(); });
  sched.Run();
  // T1 -> B, T2 -> C park; T3 -> A closes the 3-cycle.
  cc.Access(1, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  cc.Access(2, 30, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool t3_died = false;
  cc.Access(3, 10, true, [] { FAIL(); }, [&] { t3_died = true; });
  sched.Run();
  EXPECT_TRUE(t3_died);
  cc.Abort(3);
  cc.Abort(2);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcDeadlockDetect, UpgradeDeadlockBetweenTwoReaders) {
  desp::Scheduler sched;
  LockTable cc(&sched, ProtocolKind::kDeadlockDetect);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 10, false, [] {}, [] { FAIL(); });
  sched.Run();
  // T1's upgrade parks on T2's S hold; T2's upgrade would deadlock.
  bool t1_x = false;
  cc.Access(1, 10, true, [&] { t1_x = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_FALSE(t1_x);
  bool t2_died = false;
  cc.Access(2, 10, true, [] { FAIL(); }, [&] { t2_died = true; });
  sched.Run();
  EXPECT_TRUE(t2_died);
  cc.Abort(2);
  sched.Run();
  EXPECT_TRUE(t1_x);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

// --- The shared lock table ----------------------------------------------------

TEST(CcLockTable, WakeUpsRunUnderTheWaitersTraceContext) {
  for (const ProtocolKind kind :
       {ProtocolKind::kWaitDie, ProtocolKind::kDeadlockDetect}) {
    desp::Scheduler sched;
    LockTable cc(&sched, kind);
    cc.Begin(1, 1);  // the older one waits under either policy
    cc.Begin(2, 2);
    cc.Access(2, 10, true, [] {}, [] { FAIL(); });
    sched.Run();
    uint32_t woken_under = 0;
    {
      desp::TraceScope requester(&sched, 7);
      cc.Access(1, 10, true, [&] { woken_under = sched.current_trace(); },
                [] { FAIL(); });
    }
    sched.Run();
    {
      desp::TraceScope releaser(&sched, 9);
      cc.Commit(2);
    }
    sched.Run();
    EXPECT_EQ(woken_under, 7u) << ToString(kind);
    cc.Commit(1);
  }
}

TEST(CcLockTable, ReleasingAParkedTransactionDropsItsRequest) {
  // A transaction released while parked (its abort decided elsewhere)
  // leaves its queue: its request is never granted, and the waiter
  // behind it wakes as soon as the holder releases.
  for (const ProtocolKind kind :
       {ProtocolKind::kWaitDie, ProtocolKind::kDeadlockDetect}) {
    desp::Scheduler sched;
    LockTable cc(&sched, kind);
    for (uint64_t t = 1; t <= 3; ++t) cc.Begin(t, t);
    cc.Access(3, 10, true, [] {}, [] { FAIL(); });
    sched.Run();
    bool reader_granted = false;
    bool writer_granted = false;
    cc.Access(2, 10, false, [&] { reader_granted = true; }, [] { FAIL(); });
    cc.Access(1, 10, true, [&] { writer_granted = true; }, [] { FAIL(); });
    sched.Run();
    EXPECT_EQ(cc.stats().waits, 2u) << ToString(kind);
    cc.Abort(2);
    cc.Commit(3);
    sched.Run();
    EXPECT_FALSE(reader_granted) << ToString(kind);
    EXPECT_TRUE(writer_granted) << ToString(kind);
    EXPECT_TRUE(cc.Holds(1, 10, LockMode::kExclusive)) << ToString(kind);
    cc.Commit(1);
    EXPECT_EQ(cc.ActiveTransactions(), 0u) << ToString(kind);
  }
}

// --- MVCC --------------------------------------------------------------------

TEST(CcMvcc, ReadersNeverBlockOnWriteIntents) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  bool wrote = false;
  bool read = false;
  cc.Access(1, 10, true, [&] { wrote = true; }, [] { FAIL(); });
  cc.Access(2, 10, false, [&] { read = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(read);
  EXPECT_EQ(cc.stats().waits, 0u);
  EXPECT_TRUE(cc.ValidateCommit(1));
  cc.Commit(1);
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
}

TEST(CcMvcc, ConcurrentWritersConflictImmediately) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  bool died = false;
  cc.Access(2, 10, true, [] { FAIL() << "second intent must conflict"; },
            [&] { died = true; });
  sched.Run();
  EXPECT_TRUE(died);
  EXPECT_EQ(cc.stats().aborts_write_conflict, 1u);
  cc.Abort(2);
  cc.Commit(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcMvcc, FirstCommitterWinsValidation) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  cc.Begin(1, 1);  // snapshot before T2's commit
  cc.Begin(2, 2);
  cc.Access(2, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);  // installs a version newer than T1's snapshot
  // T1 now writes the same object: its intent is free (T2 released it)
  // but commit-time validation must fail — first committer won.
  bool wrote = false;
  cc.Access(1, 10, true, [&] { wrote = true; }, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(wrote);
  EXPECT_FALSE(cc.ValidateCommit(1));
  EXPECT_EQ(cc.stats().validation_failures, 1u);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcMvcc, VersionsPrunedBelowOldestSnapshot) {
  desp::Scheduler sched;
  Mvcc cc(&sched);
  // Sequential committed writes to one object: with no concurrent
  // readers the chain must stay short (pruned to the horizon).
  for (uint64_t t = 1; t <= 20; ++t) {
    cc.Begin(t, t);
    cc.Access(t, 10, true, [] {}, [] { FAIL(); });
    sched.Run();
    ASSERT_TRUE(cc.ValidateCommit(t));
    cc.Commit(t);
  }
  EXPECT_GT(cc.stats().versions_installed, 0u);
  EXPECT_GT(cc.stats().versions_pruned, 0u);
  EXPECT_LE(cc.VersionChainLength(10), 2u);
}

// --- OCC ---------------------------------------------------------------------

TEST(CcOcc, AccessesAlwaysGrantImmediately) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  int granted = 0;
  cc.Access(1, 10, true, [&] { ++granted; }, [] { FAIL(); });
  cc.Access(2, 10, true, [&] { ++granted; }, [] { FAIL(); });
  sched.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(cc.stats().waits, 0u);
  cc.Abort(1);
  cc.Abort(2);
}

TEST(CcOcc, BackwardValidationCatchesStaleReads) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  // T1 reads A; T2 writes A and commits first.
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 10, true, [] {}, [] { FAIL(); });
  sched.Run();
  ASSERT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
  // T1's read overlaps a write set committed after its start: abort.
  EXPECT_FALSE(cc.ValidateCommit(1));
  EXPECT_EQ(cc.stats().validation_failures, 1u);
  cc.Abort(1);
  EXPECT_EQ(cc.ActiveTransactions(), 0u);
}

TEST(CcOcc, DisjointSetsCommitFreely) {
  desp::Scheduler sched;
  Occ cc(&sched);
  cc.Begin(1, 1);
  cc.Begin(2, 2);
  cc.Access(1, 10, false, [] {}, [] { FAIL(); });
  cc.Access(2, 20, true, [] {}, [] { FAIL(); });
  sched.Run();
  EXPECT_TRUE(cc.ValidateCommit(2));
  cc.Commit(2);
  EXPECT_TRUE(cc.ValidateCommit(1));
  cc.Commit(1);
  EXPECT_EQ(cc.stats().validation_failures, 0u);
}

TEST(CcOcc, CommittedLogTruncatedToActiveHorizon) {
  desp::Scheduler sched;
  Occ cc(&sched);
  for (uint64_t t = 1; t <= 100; ++t) {
    cc.Begin(t, t);
    cc.Access(t, 10 + (t % 7), true, [] {}, [] { FAIL(); });
    sched.Run();
    ASSERT_TRUE(cc.ValidateCommit(t));
    cc.Commit(t);
  }
  // No active transactions: the whole log is below the horizon.
  EXPECT_LE(cc.RetainedCommits(), 1u);
}

// --- Decision delivery: inline on the requester's stack, scheduled else -----

constexpr ProtocolKind kEveryKind[] = {
    ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
    ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc, ProtocolKind::kOcc};

/// One Access: the continuation that ran before it returned ('g' granted,
/// 'a' aborted, 0 none, i.e. parked), checking that it scheduled nothing.
char DecideInline(desp::Scheduler& sched, Protocol& cc, uint64_t txn,
                  ocb::Oid oid, bool write) {
  char decided = 0;
  const size_t pending = sched.PendingEvents();
  cc.Access(txn, oid, write, [&] { decided = 'g'; }, [&] { decided = 'a'; });
  EXPECT_EQ(sched.PendingEvents(), pending) << ToString(cc.kind());
  return decided;
}

TEST(CcDecisions, OnStackDecisionsRunBeforeAccessReturns) {
  for (const ProtocolKind kind : kEveryKind) {
    SCOPED_TRACE(ToString(kind));
    desp::Scheduler sched;
    const auto cc = MakeProtocol(kind, &sched);
    cc->Begin(1, 1);  // older
    cc->Begin(2, 2);
    EXPECT_EQ(DecideInline(sched, *cc, 1, 10, false), 'g');  // fresh
    EXPECT_EQ(DecideInline(sched, *cc, 1, 10, false), 'g');  // held
    EXPECT_EQ(DecideInline(sched, *cc, 1, 10, true), 'g');   // S -> X
    EXPECT_EQ(DecideInline(sched, *cc, 2, 20, true), 'g');
    // The younger writer meets the older one's write: no-wait and
    // wait-die kill it, MVCC sees a write-intent collision, OCC never
    // blocks, and deadlock detection parks it (no decision yet).
    const char expected = kind == ProtocolKind::kOcc ? 'g'
                          : kind == ProtocolKind::kDeadlockDetect ? 0
                                                                  : 'a';
    char second = 0;  // outlives the request when it parks
    cc->Access(2, 10, true, [&] { second = 'g'; }, [&] { second = 'a'; });
    EXPECT_EQ(second, expected);
    if (kind == ProtocolKind::kDeadlockDetect) {
      // 1 -> 20 would close the cycle 1 -> 2 -> 1: the requester aborts.
      EXPECT_EQ(DecideInline(sched, *cc, 1, 20, true), 'a');
      EXPECT_EQ(cc->stats().aborts_deadlock, 1u);
    }
    EXPECT_EQ(sched.PendingEvents(), 0u);
    EXPECT_EQ(sched.ExecutedEvents(), 0u);
  }
}

TEST(CcDecisions, ReleaseDecisionsArriveAsOneScheduledEvent) {
  // The protocols that park a request.  A wake-up is decided on the
  // releaser's stack, so it reaches the waiter as one zero-delay event.
  // It is the only decision a parked request ever receives: wait-die and
  // deadlock detection abort a requester before it parks, never after
  // (LockTable.WaitDieParkedWaitersStayOlderThanConflictsAhead).
  for (const ProtocolKind kind :
       {ProtocolKind::kWaitDie, ProtocolKind::kDeadlockDetect}) {
    SCOPED_TRACE(ToString(kind));
    desp::Scheduler sched;
    const auto cc = MakeProtocol(kind, &sched);
    cc->Begin(1, 1);  // older: waits under either policy
    cc->Begin(2, 2);
    EXPECT_EQ(DecideInline(sched, *cc, 2, 10, true), 'g');
    char decided = 0;
    cc->Access(1, 10, true, [&] { decided = 'g'; }, [&] { decided = 'a'; });
    EXPECT_EQ(decided, 0);
    EXPECT_EQ(sched.PendingEvents(), 0u);
    cc->Commit(2);
    EXPECT_EQ(decided, 0);  // not on the releaser's stack
    EXPECT_EQ(sched.PendingEvents(), 1u);
    sched.Run();
    EXPECT_EQ(decided, 'g');
    EXPECT_EQ(sched.ExecutedEvents(), 1u);
    cc->Commit(1);
    EXPECT_EQ(cc->ActiveTransactions(), 0u);
  }
}

TEST(CcDecisions, GrantThatCommitsInsideAccessLeavesNothingActive) {
  for (const ProtocolKind kind : kEveryKind) {
    SCOPED_TRACE(ToString(kind));
    desp::Scheduler sched;
    const auto cc = MakeProtocol(kind, &sched);
    Protocol& p = *cc;
    const auto commit = [&p](uint64_t txn) {
      return [&p, txn] {
        ASSERT_TRUE(p.ValidateCommit(txn));
        p.Commit(txn);
      };
    };
    // A fresh grant.
    cc->Begin(1, 1);
    cc->Access(1, 10, false, commit(1), [] { FAIL(); });
    EXPECT_EQ(cc->ActiveTransactions(), 0u);
    // An upgrade (a write intent under MVCC) with an older writer parked
    // on the object: the grant commits inside Access, and the release
    // wakes the waiter as a scheduled event.
    cc->Begin(5, 5);
    cc->Begin(3, 3);
    EXPECT_EQ(DecideInline(sched, *cc, 5, 10, false), 'g');
    const bool parks = kind == ProtocolKind::kWaitDie ||
                       kind == ProtocolKind::kDeadlockDetect;
    char waiter = 0;
    if (parks) {
      cc->Access(3, 10, true, [&] { waiter = 'g'; }, [&] { waiter = 'a'; });
    }
    cc->Access(5, 10, true, commit(5), [] { FAIL(); });
    EXPECT_EQ(cc->ActiveTransactions(), 1u);
    EXPECT_EQ(waiter, 0);
    sched.Run();
    EXPECT_EQ(waiter, parks ? 'g' : 0);
    cc->Commit(3);
    EXPECT_EQ(cc->ActiveTransactions(), 0u);
  }
}

// --- End-to-end: every protocol inside the VOODB system ---------------------

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.max_refs_per_class = 3;
  p.base_instance_size = 60;
  p.p_update = 0.5;
  p.root_region = 6;
  p.seed = 111;
  return p;
}

core::VoodbConfig ProtocolConfig(ProtocolKind kind) {
  core::VoodbConfig cfg;
  cfg.system_class = core::SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 128;
  cfg.multiprogramming_level = 8;
  cfg.num_users = 8;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = kind;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  return cfg;
}

TEST(CcSystem, EveryProtocolCompletesAContendedRun) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kWaitDie,
        ProtocolKind::kDeadlockDetect, ProtocolKind::kMvcc,
        ProtocolKind::kOcc}) {
    core::VoodbSystem sys(ProtocolConfig(kind), &base, nullptr, 13);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
    const core::PhaseMetrics m = sys.RunTransactions(gen, 120);
    EXPECT_EQ(m.transactions, 120u) << ToString(kind);
    const cc::Protocol* protocol = sys.transaction_manager().cc_protocol();
    ASSERT_NE(protocol, nullptr) << ToString(kind);
    EXPECT_EQ(protocol->kind(), kind);
    // Everything released / forgotten when the run drains.
    EXPECT_EQ(protocol->ActiveTransactions(), 0u) << ToString(kind);
    EXPECT_EQ(sys.transaction_manager().inflight_pool_live(), 0u)
        << ToString(kind);
    // Restart accounting agrees between the TM and the protocol.
    EXPECT_EQ(protocol->stats().TotalAborts(), m.transaction_restarts)
        << ToString(kind);
  }
}

TEST(CcSystem, WaitDieIsTheDefaultProtocol) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbConfig cfg = ProtocolConfig(ProtocolKind::kWaitDie);
  cfg.cc_protocol = core::VoodbConfig().cc_protocol;
  core::VoodbSystem sys(cfg, &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 60);
  const cc::Protocol* protocol = sys.transaction_manager().cc_protocol();
  ASSERT_NE(protocol, nullptr);
  EXPECT_EQ(protocol->kind(), ProtocolKind::kWaitDie);
}

TEST(CcSystem, RunsAreDeterministicPerProtocol) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const ProtocolKind kind :
       {ProtocolKind::kNoWait, ProtocolKind::kDeadlockDetect,
        ProtocolKind::kMvcc, ProtocolKind::kOcc}) {
    core::PhaseMetrics runs[2];
    for (int r = 0; r < 2; ++r) {
      core::VoodbSystem sys(ProtocolConfig(kind), &base, nullptr, 13);
      ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
      runs[r] = sys.RunTransactions(gen, 120);
    }
    EXPECT_EQ(runs[0].transaction_restarts, runs[1].transaction_restarts)
        << ToString(kind);
    EXPECT_EQ(runs[0].total_ios, runs[1].total_ios) << ToString(kind);
    EXPECT_EQ(runs[0].sim_time_ms, runs[1].sim_time_ms) << ToString(kind);
  }
}

TEST(CcSystem, InFlightPoolBoundedByConcurrency) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(ProtocolConfig(ProtocolKind::kWaitDie), &base,
                        nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 100);
  const size_t after_first = sys.transaction_manager().inflight_pool_capacity();
  EXPECT_LE(after_first, 8u);  // num_users
  sys.RunTransactions(gen, 100);
  // Steady state: running more transactions allocates no new slots.
  EXPECT_EQ(sys.transaction_manager().inflight_pool_capacity(), after_first);
  EXPECT_EQ(sys.transaction_manager().inflight_pool_live(), 0u);
}

TEST(CcSystem, MetricsExposeCcCounters) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  core::VoodbSystem sys(ProtocolConfig(ProtocolKind::kMvcc), &base, nullptr,
                        13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 120);
  const obs::MetricSnapshot snapshot = sys.metric_registry().Snapshot();
  ASSERT_EQ(snapshot.counters.count("cc.begins"), 1u);
  EXPECT_GT(snapshot.counters.at("cc.begins"), 0u);
  ASSERT_EQ(snapshot.counters.count("cc.commits"), 1u);
  EXPECT_GT(snapshot.counters.at("cc.commits"), 0u);
  EXPECT_EQ(snapshot.counters.count("cc.aborts.write_conflict"), 1u);
  EXPECT_EQ(snapshot.counters.count("cc.upgrades"), 1u);
  EXPECT_EQ(snapshot.histograms.count("cc.version_chain"), 1u);
}


// --- Golden outputs ------------------------------------------------------------

/// Simulated outputs of contended runs under the three 2PL policies,
/// recorded from the implementation that kept a separate lock table per
/// policy (wait-die in a standalone lock manager).  The unified table must
/// reproduce them exactly: any change to grant, wake-up, die or cycle
/// decisions — or to their event order — moves at least one of them.
struct TwoPhaseGolden {
  ProtocolKind kind;
  uint32_t users;
  uint64_t seed;
  uint64_t transactions;
  uint64_t restarts;
  double sim_time_ms;
  uint64_t total_ios;
  uint64_t requests;
  uint64_t immediate_grants;
  uint64_t waits;
  uint64_t aborts;
  double lock_wait_sum_ms;
  uint64_t upgrades;  ///< recorded for wait_die only
};

constexpr TwoPhaseGolden kTwoPhaseGoldens[] = {
    {ProtocolKind::kNoWait, 8, 13, 200, 1549, 6340.529979929529, 75, 19689,
     18140, 0, 1549, 0.0, 0},
    {ProtocolKind::kNoWait, 8, 29, 200, 1411, 5583.5219398872878, 75, 16492,
     15081, 0, 1411, 0.0, 0},
    {ProtocolKind::kWaitDie, 8, 13, 200, 1407, 6231.0277796293403, 75, 19060,
     17255, 398, 1407, 3779.5335461185191, 176},
    {ProtocolKind::kWaitDie, 8, 29, 200, 1301, 5723.8328388777309, 75, 16992,
     15317, 374, 1301, 3509.1257295104288, 167},
    {ProtocolKind::kDeadlockDetect, 8, 13, 200, 2709, 21560.475000034025, 75,
     93201, 84449, 6043, 2709, 67318.924016270161, 0},
    {ProtocolKind::kDeadlockDetect, 8, 29, 200, 3318, 24485.480840012024, 75,
     107946, 97520, 7108, 3318, 71911.378896331662, 0},
    {ProtocolKind::kNoWait, 32, 13, 200, 30337, 25108.755730781384, 75,
     113266, 82929, 0, 30337, 0.0, 0},
    {ProtocolKind::kWaitDie, 32, 13, 200, 14739, 13881.929340658724, 75,
     58063, 40630, 2694, 14739, 32722.424954089987, 255},
    {ProtocolKind::kWaitDie, 32, 29, 200, 13506, 12821.390835492968, 75,
     53448, 37561, 2381, 13506, 29096.359624935594, 243},
};

TEST(CcGolden, TwoPhaseRunsReproduceRecordedOutputs) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const TwoPhaseGolden& g : kTwoPhaseGoldens) {
    core::VoodbConfig cfg = ProtocolConfig(g.kind);
    cfg.num_users = g.users;
    cfg.multiprogramming_level = g.users;
    core::VoodbSystem sys(cfg, &base, nullptr, g.seed);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(g.seed));
    const core::PhaseMetrics m = sys.RunTransactions(gen, g.transactions);
    const CcStats& stats = sys.transaction_manager().cc_protocol()->stats();
    const std::string cell = std::string(ToString(g.kind)) + " users=" +
                             std::to_string(g.users) +
                             " seed=" + std::to_string(g.seed);
    EXPECT_EQ(m.transactions, g.transactions) << cell;
    EXPECT_EQ(m.transaction_restarts, g.restarts) << cell;
    EXPECT_EQ(m.sim_time_ms, g.sim_time_ms) << cell;
    EXPECT_EQ(m.total_ios, g.total_ios) << cell;
    EXPECT_EQ(stats.requests, g.requests) << cell;
    EXPECT_EQ(stats.immediate_grants, g.immediate_grants) << cell;
    EXPECT_EQ(stats.waits, g.waits) << cell;
    EXPECT_EQ(stats.TotalAborts(), g.aborts) << cell;
    EXPECT_EQ(m.lock_wait_histogram.sum(), g.lock_wait_sum_ms) << cell;
    if (g.kind == ProtocolKind::kWaitDie) {
      EXPECT_EQ(stats.upgrades, g.upgrades) << cell;
    }
  }
}

/// Simulated outputs of the same contended runs under the two
/// optimistic protocols, recorded from the binary that preceded the
/// direct-table id index.  MVCC pins its write-intent collisions, its
/// commit-time read validation and its version install/prune counts;
/// OCC pins its backward validation.  Any change to an access decision,
/// a validation outcome or the event order moves at least one of them.
struct OptimisticGolden {
  ProtocolKind kind;
  uint32_t users;
  uint64_t seed;
  uint64_t transactions;
  uint64_t restarts;
  double sim_time_ms;
  uint64_t total_ios;
  uint64_t requests;
  uint64_t commits;
  uint64_t immediate_grants;
  uint64_t waits;
  uint64_t write_conflicts;
  uint64_t validation_failures;
  uint64_t aborts;
  uint64_t versions_installed;
  uint64_t versions_pruned;
  double mean_response_ms;
};

constexpr OptimisticGolden kOptimisticGoldens[] = {
    {ProtocolKind::kMvcc, 8, 13, 200, 2008, 9399.3113420823574, 75, 34806,
     200, 32889, 0, 1917, 91, 2008, 3720, 3355, 369.1883246388125},
    {ProtocolKind::kMvcc, 8, 29, 200, 1850, 8740.7726272584532, 75, 31819,
     200, 30047, 0, 1772, 78, 1850, 3600, 3203, 343.22967887618768},
    {ProtocolKind::kMvcc, 32, 13, 200, 55332, 56802.917486463331, 75, 267647,
     200, 212345, 0, 55302, 30, 55332, 3720, 3324, 8758.0109179298706},
    {ProtocolKind::kOcc, 8, 13, 200, 493, 13153.193776945242, 75, 53158, 200,
     53158, 0, 0, 493, 493, 0, 0, 513.55908303043896},
    {ProtocolKind::kOcc, 8, 29, 200, 501, 12810.89417604657, 75, 51690, 200,
     51690, 0, 0, 501, 501, 0, 0, 498.87573528071681},
    {ProtocolKind::kOcc, 32, 13, 200, 2037, 37183.489636364691, 75, 172051,
     200, 172051, 0, 0, 2037, 2037, 0, 0, 5398.1005482029841},
};

TEST(CcGolden, OptimisticRunsReproduceRecordedOutputs) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  for (const OptimisticGolden& g : kOptimisticGoldens) {
    core::VoodbConfig cfg = ProtocolConfig(g.kind);
    cfg.num_users = g.users;
    cfg.multiprogramming_level = g.users;
    core::VoodbSystem sys(cfg, &base, nullptr, g.seed);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(g.seed));
    const core::PhaseMetrics m = sys.RunTransactions(gen, g.transactions);
    const CcStats& stats = sys.transaction_manager().cc_protocol()->stats();
    const std::string cell = std::string(ToString(g.kind)) + " users=" +
                             std::to_string(g.users) +
                             " seed=" + std::to_string(g.seed);
    EXPECT_EQ(m.transactions, g.transactions) << cell;
    EXPECT_EQ(m.transaction_restarts, g.restarts) << cell;
    EXPECT_EQ(m.sim_time_ms, g.sim_time_ms) << cell;
    EXPECT_EQ(m.total_ios, g.total_ios) << cell;
    EXPECT_EQ(stats.requests, g.requests) << cell;
    EXPECT_EQ(stats.commits, g.commits) << cell;
    EXPECT_EQ(stats.immediate_grants, g.immediate_grants) << cell;
    EXPECT_EQ(stats.waits, g.waits) << cell;
    EXPECT_EQ(stats.aborts_write_conflict, g.write_conflicts) << cell;
    EXPECT_EQ(stats.validation_failures, g.validation_failures) << cell;
    EXPECT_EQ(stats.TotalAborts(), g.aborts) << cell;
    EXPECT_EQ(stats.versions_installed, g.versions_installed) << cell;
    EXPECT_EQ(stats.versions_pruned, g.versions_pruned) << cell;
    EXPECT_EQ(m.mean_response_ms, g.mean_response_ms) << cell;
  }
}

}  // namespace
}  // namespace voodb::cc

/// \file lock_table.hpp
/// \brief One object-granularity S/X lock table for the three 2PL
/// protocols: no-wait, wait-die and waits-for cycle detection.
///
/// The paper's §5 multi-user extension is strict two-phase locking at
/// object granularity.  The three 2PL variants share everything except
/// what happens to a request that cannot be granted right now (DBx1000
/// drives NO_WAIT, WAIT_DIE and DL_DETECT through one row-lock manager
/// the same way).  The conflict policy is the protocol kind:
///
///  - **no_wait** aborts the requester immediately — no queue at all,
///    the highest abort rate under contention;
///  - **wait_die** lets a requester park only when it is older than
///    every conflicting holder and every conflicting waiter ahead of it
///    — deterministic, no cycle search.  Waits therefore only go from
///    older to younger, so a parked waiter never meets an older conflict
///    ahead of it later: a waiter granted from the queue was older than
///    everything it overtakes, and an immediate S->X upgrade is younger
///    than every waiter it conflicts with.  The check at enqueue time is
///    the whole policy;
///  - **deadlock_detect** parks every conflicting request FIFO and aborts
///    the requester only when parking it would close a waits-for cycle —
///    fewer aborts than wait-die, at the cost of the graph walk.
///
/// Queue discipline, common to the waiting policies: fresh requests never
/// overtake parked waiters; S->X upgrades jump to the queue front (or the
/// classic upgrade deadlock arises).  Wake-ups are FIFO.
///
/// The Transaction Manager issues accesses strictly one at a time, so a
/// transaction is parked on at most one object; the table tracks it, and
/// releasing a transaction touches only the objects it holds plus that
/// one queue.  Object ids are dense, so an object's entry is found by a
/// direct table load (util::IdIndex), not a hash probe.
///
/// No transaction attempt owns heap memory: each one's list of held
/// objects lives in a third list pool of the table, beside the holders
/// and the waiters, and its slot in cc::TxnTable's flat arrays.  A holder
/// record carries its transaction's wait-die age, so a wait-die decision
/// reads the ages of conflicting holders off the holder list.  Once the
/// pools have reached their peak occupancy, a fresh or restarted attempt
/// allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/protocol.hpp"
#include "desp/list_pool.hpp"
#include "desp/slot_pool.hpp"
#include "util/id_index.hpp"

namespace voodb::cc {

/// Lock compatibility: shared (read) and exclusive (write).
enum class LockMode : uint8_t { kShared, kExclusive };

const char* ToString(LockMode m);

/// Strict 2PL over an object lock table; `kind` (no_wait, wait_die or
/// deadlock_detect) selects the conflict policy.
class LockTable final : public Protocol {
 public:
  LockTable(desp::Scheduler* scheduler, ProtocolKind kind);

  ProtocolKind kind() const override { return kind_; }
  /// `age` orders transactions for wait-die (smaller is older); the
  /// other policies ignore it.
  void Begin(uint64_t txn, uint64_t age) override;
  /// S for reads, X for writes.  Re-requesting a held lock in the same or
  /// a weaker mode grants immediately; X over a held S is an upgrade.
  void Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
              Action aborted) override;
  bool ValidateCommit(uint64_t) override { return true; }
  void Commit(uint64_t txn) override;
  /// Releases every lock `txn` holds (and any request it still has
  /// parked), wakes compatible waiters, forgets the transaction.
  void Abort(uint64_t txn) override;
  size_t ActiveTransactions() const override { return txns_.active(); }

  /// True when `txn` holds a lock on `oid` in at least `mode`.
  bool Holds(uint64_t txn, ocb::Oid oid, LockMode mode) const;
  /// Distinct objects `txn` currently holds locks on.
  size_t HeldLocks(uint64_t txn) const;
  /// A parked request, as `Parked` lists it.
  struct ParkedRequest {
    uint64_t txn;
    LockMode mode;
  };
  /// The requests parked on `oid`, front of the queue first.
  std::vector<ParkedRequest> Parked(ocb::Oid oid) const;

 private:
  /// A granted lock.  The holder's wait-die age rides along, so a
  /// conflict check reads it here instead of looking the holder up (a
  /// holder is always active: Release erases a transaction's holders
  /// before it wakes anyone).
  struct Holder {
    uint64_t txn;
    uint64_t age;
    LockMode mode;
  };
  /// A parked request.  Only a grant ever reaches it: every abort is
  /// decided before a request parks, and a parked request whose
  /// transaction ends is dropped.  Fields in alignment order: the action
  /// first leaves no padding hole before the tail.
  struct Waiter {
    Action granted;
    uint64_t txn;
    double enqueued_at;
    /// Requester's ambient trace context, restored around the wake-up
    /// fire so it is attributed to the waiter, not the releasing event.
    uint32_t trace;
    LockMode mode;
  };
  static_assert(sizeof(Waiter) == sizeof(Action) + 32,
                "LockTable::Waiter grew a padding hole");
  /// An object's lock state: two lists in the table's shared pools.
  struct Entry {
    desp::ListPool<Holder>::List holders;  ///< each transaction at most once
    desp::ListPool<Waiter>::List waiters;  ///< FIFO, upgrades in front
  };
  struct TxnState {
    uint64_t age = 0;
    /// Objects locked, in the table's `held_` pool; may contain
    /// duplicates for upgrades.  Release empties it before recycling.
    desp::ListPool<ocb::Oid>::List held;
    bool waiting = false;  // parked on `waiting_on`
    ocb::Oid waiting_on = 0;
    /// Cycle-search stamp: search ids strictly increase, so a stale mark
    /// never matches and needs no reset on recycle.
    uint64_t visit_mark = 0;
    void Recycle() { waiting = false; }
  };

  /// The entry of `oid`, created on first use.  Entries live in a flat
  /// slot pool found through an IdIndex (a direct table indexed by oid),
  /// their holders and waiters in two shared list pools, and idle
  /// entries are retired to a free list.  The pools grow geometrically
  /// with the table's total occupancy and the index with the largest oid
  /// locked, so once both have peaked, locking an object allocates
  /// nothing.  A returned reference is valid until the next EntryFor.
  Entry& EntryFor(ocb::Oid oid);
  /// The entry of `oid`, or nullptr when nobody holds or awaits it.
  Entry* FindEntry(ocb::Oid oid);
  /// Retires `oid`'s entry when it has no holders and no waiters.
  void RetireIfIdle(ocb::Oid oid);
  bool HoldsIn(const Entry& entry, uint64_t txn, LockMode mode) const;
  /// True when `mode` can be granted on `entry` for `txn` right now.
  bool Compatible(const Entry& entry, uint64_t txn, LockMode mode) const;
  /// Records the grant on `entry` and in `state`'s held list.
  void Grant(Entry& entry, ocb::Oid oid, uint64_t txn, TxnState& state,
             LockMode mode);
  /// FIFO wake-up: grants the head while it is compatible (several shared
  /// requests may be granted together).
  void WakeWaiters(ocb::Oid oid, Entry& entry);
  void Release(uint64_t txn);

  // --- wait-die ------------------------------------------------------------
  /// True when `txn`, of wait-die age `age`, is older than every
  /// conflicting holder *and* every conflicting waiter among the first
  /// `ahead_count` queue entries.  Queue positions are wait targets too:
  /// ignoring them lets cycles form through FIFO ordering (an old
  /// holder-wait plus a young queue-wait).
  bool MayWait(const Entry& entry, uint64_t txn, uint64_t age, LockMode mode,
               size_t ahead_count) const;

  // --- deadlock detection ----------------------------------------------------
  /// True when parking `txn` on `entry` (at the queue front for upgrades,
  /// else at the back) would close a waits-for cycle.  Edges are derived
  /// on the fly: a parked waiter waits on every conflicting holder and
  /// every conflicting waiter ahead of it.
  bool WouldDeadlock(const Entry& entry, uint64_t txn, LockMode mode,
                     bool front);
  /// DFS helper: true when `start` can reach `origin` through waits-for
  /// edges.
  bool Reaches(uint64_t start, uint64_t origin);

  const ProtocolKind kind_;
  desp::SlotPool<Entry> entries_;
  util::IdIndex entry_index_;  // oid -> entries_ slot
  desp::ListPool<Holder> holders_;
  desp::ListPool<Waiter> waiters_;
  desp::ListPool<ocb::Oid> held_;  // every transaction's held list
  TxnTable<TxnState> txns_;
  std::vector<ocb::Oid> releasing_;  // reused by Release
  std::vector<uint64_t> dfs_stack_;  // reused across cycle searches
  uint64_t dfs_search_ = 0;          // current search id (visit stamps)
};

}  // namespace voodb::cc

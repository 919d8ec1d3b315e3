/// \file protocol.hpp
/// \brief The pluggable concurrency-control protocol interface.
///
/// The paper's §5 multi-user extension hardwires one scheme: object-level
/// 2PL with wait-die.  This subsystem makes the protocol a first-class
/// axis: the Transaction Manager talks to a `cc::Protocol` — register a
/// transaction attempt, decide each object access, validate at commit,
/// release on commit/abort — and the concrete scheme behind it is swept
/// like any other parameter (`cc_protocol`).
///
/// Five implementations cover the classic protocol families of the
/// many-core concurrency-control literature (DBx1000 lineage): 2PL
/// no-wait, 2PL wait-die and 2PL with waits-for cycle detection (one
/// lock table, three conflict policies: cc::LockTable), multiversion
/// timestamp ordering with first-committer-wins writes, and optimistic
/// validate-at-commit with backward validation.
///
/// Determinism contract: a protocol may interact with the run only
/// through its continuations and its scheduler, and must never iterate an
/// unordered container where the order can leak into event order — so a
/// run stays a pure function of its seed, sharded or not.  A decision
/// taken inside `Access`, on the requester's own stack, runs its
/// continuation inline as the last statement of `Access`; a decision one
/// transaction's `Commit`/`Abort` takes for another (a wake-up, a
/// wait-die kill) fires as a zero-delay scheduled event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/kind.hpp"
#include "desp/histogram.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "desp/small_function.hpp"
#include "desp/stats.hpp"
#include "ocb/types.hpp"
#include "util/check.hpp"

namespace voodb::obs {
class MetricRegistry;
class SpanTracer;
enum class AbortCause : uint8_t;
}  // namespace voodb::obs

namespace voodb::cc {

/// Counters every protocol exposes (`cc.*` in the metric registry).
/// Abort causes are disjoint: a restarted attempt increments exactly one.
struct CcStats {
  uint64_t begins = 0;    ///< transaction attempts registered
  uint64_t requests = 0;  ///< access decisions requested
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;  ///< requests that had to park
  uint64_t upgrades = 0;  ///< 2PL S -> X upgrades granted
  uint64_t commits = 0;
  // --- aborts by cause -----------------------------------------------------
  uint64_t aborts_no_wait = 0;         ///< no-wait conflict aborts
  uint64_t aborts_wait_die = 0;        ///< wait-die "die" decisions
  uint64_t aborts_deadlock = 0;        ///< waits-for cycles detected
  uint64_t aborts_write_conflict = 0;  ///< MVCC write-intent collisions
  uint64_t validation_failures = 0;    ///< commit-time validation aborts
  // --- MVCC version bookkeeping --------------------------------------------
  uint64_t versions_installed = 0;
  uint64_t versions_pruned = 0;
  /// Queueing time per access decision (immediate grants count as 0, so
  /// percentiles cover every acquisition).
  desp::Tally wait_times;
  desp::LogHistogram wait_histogram;
  /// Version-chain length sampled at every MVCC read.
  desp::LogHistogram version_chain;

  /// Aborts across every cause.
  uint64_t TotalAborts() const {
    return aborts_no_wait + aborts_wait_die + aborts_deadlock +
           aborts_write_conflict + validation_failures;
  }
};

/// Pooled per-transaction state: a desp::SlotPool of `State` slots, so
/// per-attempt registration reuses the previous attempt's vector
/// capacities instead of allocating (the kernel's zero-allocation
/// discipline applied to protocol bookkeeping).  Transaction ids map to
/// slots through a flat open-addressing index of `{txn, slot}` cells:
/// Fibonacci hashing into a power-of-two array kept at most half full,
/// linear probing, and backward-shift deletion (no tombstones, so probe
/// runs stay short however long the churn).  The slot pool and the cell
/// array grow geometrically with peak concurrency and never shrink, so
/// once concurrency has peaked registering an attempt allocates nothing
/// and a lookup is one multiply and a short scan of adjacent cells.  `State::Recycle()` must clear the slot for reuse
/// while keeping capacity.
template <typename State>
class TxnTable {
 public:
  State& Begin(uint64_t txn) {
    if (2 * (slots_.live() + 1) > cells_.size()) Grow();
    size_t i = Home(txn);
    for (; cells_[i].slot != kEmpty; i = (i + 1) & mask_) {
      VOODB_CHECK_MSG(cells_[i].txn != txn,
                      "transaction " << txn << " already active");
    }
    const uint32_t slot = slots_.Alloc();
    cells_[i] = Cell{txn, slot};
    return slots_[slot];
  }

  State* Find(uint64_t txn) {
    const size_t i = Locate(txn);
    return i == kMissing ? nullptr : &slots_[cells_[i].slot];
  }
  const State* Find(uint64_t txn) const {
    const size_t i = Locate(txn);
    return i == kMissing ? nullptr : &slots_[cells_[i].slot];
  }

  State& At(uint64_t txn) {
    State* s = Find(txn);
    VOODB_CHECK_MSG(s != nullptr, "transaction " << txn << " not active");
    return *s;
  }

  /// Recycles the slot (keeps its heap capacity for the next Begin).
  void End(uint64_t txn) {
    size_t hole = Locate(txn);
    VOODB_CHECK_MSG(hole != kMissing,
                    "transaction " << txn << " not active");
    const uint32_t slot = cells_[hole].slot;
    slots_[slot].Recycle();
    slots_.Free(slot);
    // Backward shift: pull each later cell of the probe run into the
    // hole unless its home lies cyclically after the hole.
    for (size_t j = (hole + 1) & mask_; cells_[j].slot != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - Home(cells_[j].txn)) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].slot = kEmpty;
  }

  /// Applies `fn(txn_id, state)` to every active transaction.  Iteration
  /// order is unspecified — use only for order-insensitive reductions
  /// (minima, counts), never for anything that can reach the scheduler.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.slot != kEmpty) fn(c.txn, slots_[c.slot]);
    }
  }

  size_t active() const { return slots_.live(); }
  /// Slots ever constructed — bounded by peak concurrency, not by the
  /// number of transactions run (the pooling witness micro_cc asserts).
  size_t capacity() const { return slots_.capacity(); }

 private:
  static constexpr uint32_t kEmpty = static_cast<uint32_t>(-1);
  static constexpr size_t kMissing = static_cast<size_t>(-1);
  static constexpr size_t kMinCells = 16;

  struct Cell {
    uint64_t txn = 0;
    uint32_t slot = kEmpty;
  };

  size_t Home(uint64_t txn) const {
    return static_cast<size_t>((txn * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The cell holding `txn`, or kMissing.
  size_t Locate(uint64_t txn) const {
    if (slots_.live() == 0) return kMissing;
    for (size_t i = Home(txn); cells_[i].slot != kEmpty;
         i = (i + 1) & mask_) {
      if (cells_[i].txn == txn) return i;
    }
    return kMissing;
  }

  /// Doubles the cell array (kMinCells at first use) and reinserts.
  void Grow() {
    std::vector<Cell> old(std::max(kMinCells, 2 * cells_.size()));
    old.swap(cells_);
    mask_ = cells_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cells_.size()));
    for (const Cell& c : old) {
      if (c.slot == kEmpty) continue;
      size_t i = Home(c.txn);
      while (cells_[i].slot != kEmpty) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;  // power-of-two size, at most half full
  size_t mask_ = 0;          // cells_.size() - 1
  unsigned shift_ = 64;      // 64 - log2(cells_.size())
  desp::SlotPool<State> slots_;
};

/// The protocol interface the Transaction Manager drives.
class Protocol {
 public:
  /// Continuation type: the scheduler's own action type, so a decision
  /// (possibly parked in a wait queue first) reaches the event list
  /// without a heap allocation for the Transaction Manager's captures.
  using Action = desp::SmallFunction;

  explicit Protocol(desp::Scheduler* scheduler);
  virtual ~Protocol();

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ToString(kind()); }

  /// Registers a transaction attempt.  `age` is the attempt-invariant
  /// age stamp (kept across restarts, wait-die's no-starvation lever);
  /// `txn` is fresh per attempt.
  virtual void Begin(uint64_t txn, uint64_t age) = 0;

  /// Decides one object access.  Exactly one continuation runs: `granted`
  /// once the access may proceed, `aborted` if the protocol kills the
  /// attempt (the caller releases with Abort() and retries).  A decision
  /// reached at once (an immediate grant, a no-wait, wait-die, deadlock
  /// or write-conflict abort) calls its continuation before `Access`
  /// returns, with nothing scheduled; the continuation may go on to
  /// Commit() or Abort() the same transaction.  A parked request's
  /// decision arrives later as one scheduled event.
  virtual void Access(uint64_t txn, ocb::Oid oid, bool write,
                      Action granted, Action aborted) = 0;

  /// Commit-time validation.  True: the caller must go on to Commit().
  /// False: the attempt failed validation (counted in the stats); the
  /// caller must Abort() and retry.  Pure decision — never schedules.
  virtual bool ValidateCommit(uint64_t txn) = 0;

  /// Commits: releases locks / installs versions, wakes waiters, forgets
  /// the transaction.
  virtual void Commit(uint64_t txn) = 0;

  /// Aborts: releases everything, wakes waiters, forgets the transaction
  /// (Begin() again to retry).
  virtual void Abort(uint64_t txn) = 0;

  /// Transactions currently registered (0 when idle — leak witness).
  virtual size_t ActiveTransactions() const = 0;

  const CcStats& stats() const { return stats_; }

  /// Registers the `cc.*` counters and histograms with `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

  /// Attaches the span tracer (may be null).  Protocols annotate the
  /// requester's open attempt span with the abort cause at decision time
  /// — pure metadata, never visible to the simulation.
  void SetTracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

 protected:
  /// Annotates the ambient trace (the requester's, at decision sites)
  /// with `cause`; no-op without a tracer.
  void NoteAbort(obs::AbortCause cause);
  /// Fires a decision continuation as a zero-delay event.  Only for a
  /// decision one transaction's release takes for another: inline, the
  /// woken transaction would run nested on the releaser's stack,
  /// re-entering the table while the release still walks its lists.
  void Fire(Action action) { scheduler_->Schedule(0.0, std::move(action)); }

  desp::Scheduler* scheduler_;
  CcStats stats_;
  obs::SpanTracer* tracer_ = nullptr;
};

/// Builds the protocol selected by `kind` on `scheduler`.
std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind,
                                       desp::Scheduler* scheduler);

}  // namespace voodb::cc

#include "cc/lock_table.hpp"

#include <algorithm>
#include <utility>

#include "obs/spans.hpp"

namespace voodb::cc {
namespace {

bool Conflicting(LockMode a, LockMode b) {
  return a == LockMode::kExclusive || b == LockMode::kExclusive;
}

/// List end marker of the holder and waiter pools.
constexpr uint32_t kEnd = desp::ListPool<LockMode>::kEnd;

}  // namespace

const char* ToString(LockMode m) {
  return m == LockMode::kShared ? "S" : "X";
}

LockTable::LockTable(desp::Scheduler* scheduler, ProtocolKind kind)
    : Protocol(scheduler), kind_(kind) {
  VOODB_CHECK_MSG(kind == ProtocolKind::kNoWait ||
                      kind == ProtocolKind::kWaitDie ||
                      kind == ProtocolKind::kDeadlockDetect,
                  ToString(kind) << " is not a two-phase locking protocol");
}

void LockTable::Begin(uint64_t txn, uint64_t age) {
  // Restarted transactions keep their original age, so under wait-die
  // they eventually become the oldest and cannot die forever.
  txns_.Begin(txn).age = age;
  ++stats_.begins;
}

bool LockTable::HoldsIn(const Entry& entry, uint64_t txn,
                        LockMode mode) const {
  for (const Holder& h : holders_.Of(entry.holders)) {
    if (h.txn != txn) continue;
    return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
  }
  return false;
}

bool LockTable::Holds(uint64_t txn, ocb::Oid oid, LockMode mode) const {
  const uint32_t slot = entry_index_.Find(oid);
  return slot != util::kNoIndex && HoldsIn(entries_[slot], txn, mode);
}

size_t LockTable::HeldLocks(uint64_t txn) const {
  const TxnState* state = txns_.Find(txn);
  if (state == nullptr) return 0;
  std::vector<ocb::Oid> held;
  for (const ocb::Oid oid : held_.Of(state->held)) held.push_back(oid);
  std::sort(held.begin(), held.end());
  return static_cast<size_t>(
      std::unique(held.begin(), held.end()) - held.begin());
}

std::vector<LockTable::ParkedRequest> LockTable::Parked(ocb::Oid oid) const {
  std::vector<ParkedRequest> parked;
  const uint32_t slot = entry_index_.Find(oid);
  if (slot == util::kNoIndex) return parked;
  for (const Waiter& w : waiters_.Of(entries_[slot].waiters)) {
    parked.push_back(ParkedRequest{w.txn, w.mode});
  }
  return parked;
}

LockTable::Entry& LockTable::EntryFor(ocb::Oid oid) {
  uint32_t slot = entry_index_.Find(oid);
  if (slot == util::kNoIndex) {
    slot = entries_.Alloc();
    entry_index_.Insert(oid, slot);
  }
  return entries_[slot];
}

LockTable::Entry* LockTable::FindEntry(ocb::Oid oid) {
  const uint32_t slot = entry_index_.Find(oid);
  return slot == util::kNoIndex ? nullptr : &entries_[slot];
}

void LockTable::RetireIfIdle(ocb::Oid oid) {
  const uint32_t slot = entry_index_.Find(oid);
  const Entry& entry = entries_[slot];
  if (!entry.holders.empty() || !entry.waiters.empty()) return;
  entry_index_.Erase(oid);
  entries_.Free(slot);
}

bool LockTable::Compatible(const Entry& entry, uint64_t txn,
                           LockMode mode) const {
  for (const Holder& h : holders_.Of(entry.holders)) {
    if (h.txn == txn) continue;  // own locks never conflict
    if (Conflicting(mode, h.mode)) return false;
  }
  return true;
}

void LockTable::Grant(Entry& entry, ocb::Oid oid, uint64_t txn,
                      TxnState& state, LockMode mode) {
  held_.PushBack(state.held, oid);
  for (uint32_t n = entry.holders.head; n != kEnd; n = holders_.Next(n)) {
    Holder& h = holders_[n];
    if (h.txn == txn) {
      if (mode == LockMode::kExclusive && h.mode == LockMode::kShared) {
        h.mode = LockMode::kExclusive;  // upgrade in place
        ++stats_.upgrades;
      }
      return;
    }
  }
  holders_.PushBack(entry.holders, Holder{txn, state.age, mode});
}

void LockTable::Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
                       Action aborted) {
  TxnState& state = txns_.At(txn);
  const LockMode mode = write ? LockMode::kExclusive : LockMode::kShared;
  ++stats_.requests;
  Entry& entry = EntryFor(oid);
  if (HoldsIn(entry, txn, mode)) {
    ++stats_.immediate_grants;
    granted();
    return;
  }
  // Holding the object without holding it strongly enough: S -> X.
  const bool upgrade = HoldsIn(entry, txn, LockMode::kShared);
  if (Compatible(entry, txn, mode) && (upgrade || entry.waiters.empty())) {
    Grant(entry, oid, txn, state, mode);
    ++stats_.immediate_grants;
    stats_.wait_times.Add(0.0);
    stats_.wait_histogram.Add(0.0);
    granted();
    return;
  }
  // The conflict policy: the one place the three protocols differ on a
  // fresh request.  Fresh requests queue at the back, so every current
  // waiter is ahead; upgrades jump to the front, but must still be older
  // than every conflicting parked waiter (they overtake the whole queue).
  switch (kind_) {
    case ProtocolKind::kNoWait:
      ++stats_.aborts_no_wait;
      NoteAbort(obs::AbortCause::kNoWait);
      aborted();
      return;
    case ProtocolKind::kWaitDie:
      if (!MayWait(entry, txn, state.age, mode, entry.waiters.size)) {
        ++stats_.aborts_wait_die;
        NoteAbort(obs::AbortCause::kWaitDie);
        aborted();
        return;
      }
      break;
    default:
      if (WouldDeadlock(entry, txn, mode, upgrade)) {
        ++stats_.aborts_deadlock;
        NoteAbort(obs::AbortCause::kDeadlock);
        aborted();
        return;
      }
      break;
  }
  ++stats_.waits;
  state.waiting = true;
  state.waiting_on = oid;
  Waiter waiter{std::move(granted), txn, scheduler_->Now(),
                scheduler_->current_trace(), mode};
  if (upgrade) {
    waiters_.PushFront(entry.waiters, std::move(waiter));
  } else {
    waiters_.PushBack(entry.waiters, std::move(waiter));
  }
}

void LockTable::WakeWaiters(ocb::Oid oid, Entry& entry) {
  while (!entry.waiters.empty()) {
    Waiter& head = waiters_.Front(entry.waiters);
    TxnState* waiter_state = txns_.Find(head.txn);
    if (waiter_state == nullptr) {
      // Parked by the transaction releasing now.
      waiters_.PopFront(entry.waiters);
      continue;
    }
    if (!Compatible(entry, head.txn, head.mode)) break;
    Grant(entry, oid, head.txn, *waiter_state, head.mode);
    waiter_state->waiting = false;
    const double waited = scheduler_->Now() - head.enqueued_at;
    stats_.wait_times.Add(waited);
    stats_.wait_histogram.Add(waited);
    {
      // Scheduled, not inline: the releaser decides for another
      // transaction (inline would nest its whole run on this stack), and
      // the event carries the waiter's trace context, not the releaser's.
      desp::TraceScope trace(scheduler_, head.trace);
      Fire(std::move(head.granted));
    }
    waiters_.PopFront(entry.waiters);
  }
}

void LockTable::Release(uint64_t txn) {
  TxnState& state = txns_.At(txn);
  const bool waiting = state.waiting;
  const ocb::Oid waiting_on = state.waiting_on;
  for (const ocb::Oid oid : held_.Of(state.held)) releasing_.push_back(oid);
  held_.Clear(state.held);
  // Forget the transaction first: a request it still has parked is stale
  // from here on and is dropped wherever a queue meets it.
  txns_.End(txn);
  std::sort(releasing_.begin(), releasing_.end());
  releasing_.erase(std::unique(releasing_.begin(), releasing_.end()),
                   releasing_.end());
  for (const ocb::Oid oid : releasing_) {
    Entry* entry = FindEntry(oid);
    if (entry == nullptr) continue;
    holders_.EraseIf(entry->holders,
                     [txn](const Holder& h) { return h.txn == txn; });
    WakeWaiters(oid, *entry);
    RetireIfIdle(oid);
  }
  releasing_.clear();
  // A request still parked (the release was decided elsewhere): purge it
  // and re-evaluate that queue — the purged head may have been the only
  // thing parking compatible waiters behind it.
  if (!waiting) return;
  Entry* entry = FindEntry(waiting_on);
  if (entry == nullptr) return;
  const size_t purged = waiters_.EraseIf(
      entry->waiters, [txn](const Waiter& w) { return w.txn == txn; });
  if (purged != 0) WakeWaiters(waiting_on, *entry);
  RetireIfIdle(waiting_on);
}

void LockTable::Commit(uint64_t txn) {
  ++stats_.commits;
  Release(txn);
}

void LockTable::Abort(uint64_t txn) { Release(txn); }

// ---------------------------------------------------------------------------
// wait-die
// ---------------------------------------------------------------------------

bool LockTable::MayWait(const Entry& entry, uint64_t txn, uint64_t age,
                        LockMode mode, size_t ahead_count) const {
  for (const Holder& h : holders_.Of(entry.holders)) {
    if (h.txn == txn || !Conflicting(mode, h.mode)) continue;
    // The requester may wait only for *younger* holders.
    if (age >= h.age) return false;
  }
  size_t position = 0;
  for (const Waiter& w : waiters_.Of(entry.waiters)) {
    if (position++ >= ahead_count) break;
    if (w.txn == txn || !Conflicting(mode, w.mode)) continue;
    const TxnState* ahead = txns_.Find(w.txn);
    if (ahead == nullptr) continue;  // stale entry
    if (age >= ahead->age) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// deadlock detection
// ---------------------------------------------------------------------------

bool LockTable::Reaches(uint64_t start, uint64_t origin) {
  // Iterative DFS over the waits-for graph derived on the fly.  Push
  // order follows holder-list then queue order, so the walk is
  // deterministic.
  dfs_stack_.clear();
  dfs_stack_.push_back(start);
  ++dfs_search_;
  while (!dfs_stack_.empty()) {
    const uint64_t txn = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (txn == origin) return true;
    TxnState* state = txns_.Find(txn);
    if (state == nullptr || state->visit_mark == dfs_search_) continue;
    state->visit_mark = dfs_search_;
    if (!state->waiting) continue;
    const Entry* found = FindEntry(state->waiting_on);
    if (found == nullptr) continue;
    const Entry& entry = *found;
    LockMode mode = LockMode::kShared;
    for (const Waiter& w : waiters_.Of(entry.waiters)) {
      if (w.txn == txn) {
        mode = w.mode;
        break;
      }
    }
    for (const Holder& h : holders_.Of(entry.holders)) {
      if (h.txn != txn && Conflicting(mode, h.mode)) {
        dfs_stack_.push_back(h.txn);
      }
    }
    for (const Waiter& w : waiters_.Of(entry.waiters)) {
      if (w.txn == txn) break;  // only waiters ahead are wait targets
      if (Conflicting(mode, w.mode)) dfs_stack_.push_back(w.txn);
    }
  }
  return false;
}

bool LockTable::WouldDeadlock(const Entry& entry, uint64_t txn, LockMode mode,
                              bool front) {
  // Parking closes a cycle when one of our prospective wait targets can
  // reach us.  A front insertion (upgrade) also adds edges *into* us from
  // every conflicting waiter we overtake, so a path ending at such a
  // waiter closes one too.
  auto closes_cycle = [&](uint64_t target) {
    if (Reaches(target, txn)) return true;
    if (!front) return false;
    for (const Waiter& w : waiters_.Of(entry.waiters)) {
      if (w.txn == txn || !Conflicting(mode, w.mode)) continue;
      if (target == w.txn || Reaches(target, w.txn)) return true;
    }
    return false;
  };
  // The wait targets: conflicting holders, plus — for back-of-queue
  // requests — every conflicting waiter already parked (all ahead of us).
  for (const Holder& h : holders_.Of(entry.holders)) {
    if (h.txn != txn && Conflicting(mode, h.mode) && closes_cycle(h.txn)) {
      return true;
    }
  }
  if (front) return false;
  for (const Waiter& w : waiters_.Of(entry.waiters)) {
    if (w.txn != txn && Conflicting(mode, w.mode) && closes_cycle(w.txn)) {
      return true;
    }
  }
  return false;
}

}  // namespace voodb::cc

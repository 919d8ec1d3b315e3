#include "cc/mvcc.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/spans.hpp"

namespace voodb::cc {

Mvcc::Mvcc(desp::Scheduler* scheduler) : Protocol(scheduler) {}

void Mvcc::Begin(uint64_t txn, uint64_t age) {
  (void)age;  // snapshots order by begin timestamp, not wait-die age
  TxnState& state = table_.Begin(txn);
  state.begin_ts = next_ts_++;
  ++stats_.begins;
}

size_t Mvcc::VersionChainLength(ocb::Oid oid) const {
  const auto it = versions_.find(oid);
  return 1 + (it == versions_.end() ? 0 : it->second.size());
}

void Mvcc::Access(uint64_t txn, ocb::Oid oid, bool write, Action granted,
                  Action aborted) {
  TxnState& state = table_.At(txn);
  ++stats_.requests;
  if (!write) {
    // Snapshot read: always granted; sample the chain the reader walks.
    ++stats_.immediate_grants;
    stats_.version_chain.Add(
        static_cast<double>(VersionChainLength(oid)));
    stats_.wait_times.Add(0.0);
    stats_.wait_histogram.Add(0.0);
    granted();
    return;
  }
  const auto [it, inserted] = intents_.emplace(oid, txn);
  if (!inserted && it->second != txn) {
    // Another active transaction already intends to write this object:
    // under first-committer-wins one of them must lose — abort the later
    // writer now instead of letting it run to a doomed validation.
    ++stats_.aborts_write_conflict;
    NoteAbort(obs::AbortCause::kWriteConflict);
    aborted();
    return;
  }
  if (inserted) state.writes.push_back(oid);
  ++stats_.immediate_grants;
  stats_.wait_times.Add(0.0);
  stats_.wait_histogram.Add(0.0);
  granted();
}

bool Mvcc::ValidateCommit(uint64_t txn) {
  const TxnState& state = table_.At(txn);
  for (ocb::Oid oid : state.writes) {
    const auto it = versions_.find(oid);
    if (it != versions_.end() && !it->second.empty() &&
        it->second.back() > state.begin_ts) {
      // First committer wins: someone installed a version after our
      // snapshot; committing ours would silently overwrite it.
      ++stats_.validation_failures;
      NoteAbort(obs::AbortCause::kValidation);
      return false;
    }
  }
  return true;
}

uint64_t Mvcc::OldestActiveSnapshot(uint64_t except) const {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  table_.ForEach([&](uint64_t txn, const TxnState& state) {
    if (txn != except && state.begin_ts < oldest) oldest = state.begin_ts;
  });
  return oldest;
}

void Mvcc::Commit(uint64_t txn) {
  TxnState& state = table_.At(txn);
  ++stats_.commits;
  const uint64_t commit_ts = next_ts_++;
  const uint64_t horizon = OldestActiveSnapshot(txn);
  for (ocb::Oid oid : state.writes) {
    std::vector<uint64_t>& chain = versions_[oid];
    chain.push_back(commit_ts);
    ++stats_.versions_installed;
    intents_.erase(oid);
    // Prune: every active snapshot reads the newest version at or below
    // it, so anything older than the newest version <= horizon is
    // invisible to everyone present and future.
    size_t keep_from = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] <= horizon) keep_from = i;
    }
    if (keep_from > 0) {
      chain.erase(chain.begin(),
                  chain.begin() + static_cast<ptrdiff_t>(keep_from));
      stats_.versions_pruned += keep_from;
    }
  }
  table_.End(txn);
}

void Mvcc::Abort(uint64_t txn) {
  TxnState& state = table_.At(txn);
  for (ocb::Oid oid : state.writes) intents_.erase(oid);
  table_.End(txn);
}

}  // namespace voodb::cc

/// \file workload.hpp
/// \brief A recorded trace as a workload source.
///
/// Reconstructs the transaction stream of a recorded run from its
/// transaction markers and object records and feeds it back through any
/// driver that consumes `ocb::WorkloadSource` — the DES system (set
/// `workload_source=trace`), either emulator, or a bare storage engine.
/// Replay is deterministic: the same trace yields the same transaction
/// stream on every run, so a recorded workload can be re-executed under
/// every buffer size and replacement policy without re-rolling the
/// stochastic generator.
///
/// Transaction grouping assumes the markers are properly nested, which
/// holds for every serial recording (the emulators, and DES runs with
/// one user — the `voodb trace record` default).  Traces recorded under
/// concurrent users interleave markers and are rejected.
#pragma once

#include <memory>
#include <string>

#include "ocb/workload.hpp"
#include "trace/reader.hpp"

namespace voodb::trace {

class TraceWorkload : public ocb::WorkloadSource {
 public:
  /// Opens `path` and positions at the first transaction.  Throws
  /// util::Error when the trace holds no transaction records.
  explicit TraceWorkload(const std::string& path);

  /// Reads from an externally owned stream (tests).
  explicit TraceWorkload(std::istream* is);

  /// The next recorded transaction; wraps around to the start of the
  /// trace when the stream is exhausted (so a replay can run longer than
  /// the recording).
  ocb::Transaction Next() override;

  /// Trace replay reproduces the recorded stream; the forced kind is
  /// ignored by design.
  ocb::Transaction NextOfKind(ocb::TransactionKind) override { return Next(); }

  /// Refills `txn`'s recycled buffer with the next recorded transaction.
  void NextInto(ocb::Transaction& txn, const ocb::TransactionKind*) override;

  const Header& header() const { return reader_->header(); }

  /// Transactions handed out so far (across wrap-arounds).
  uint64_t transactions_replayed() const { return replayed_; }

 private:
  std::unique_ptr<Reader> reader_;
  uint64_t replayed_ = 0;
};

}  // namespace voodb::trace

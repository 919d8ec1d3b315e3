#include "trace/workload.hpp"

#include "util/check.hpp"

namespace voodb::trace {

TraceWorkload::TraceWorkload(const std::string& path)
    : reader_(std::make_unique<Reader>(path)) {
  VOODB_CHECK_MSG(reader_->header().txn_records > 0,
                  "trace has no transaction records; it cannot drive a "
                  "workload replay");
}

TraceWorkload::TraceWorkload(std::istream* is)
    : reader_(std::make_unique<Reader>(is)) {
  VOODB_CHECK_MSG(reader_->header().txn_records > 0,
                  "trace has no transaction records; it cannot drive a "
                  "workload replay");
}

ocb::Transaction TraceWorkload::Next() {
  ocb::Transaction txn;
  NextInto(txn, nullptr);
  return txn;
}

void TraceWorkload::NextInto(ocb::Transaction& txn,
                             const ocb::TransactionKind*) {
  // `kind` is set by the kTxnBegin marker every returned transaction has.
  txn.root = ocb::kNullOid;
  txn.accesses.clear();
  bool in_txn = false;
  Record record;
  while (true) {
    if (!reader_->Next(record)) {
      VOODB_CHECK_MSG(!in_txn,
                      "trace ends inside a transaction (interleaved or "
                      "truncated markers)");
      reader_->Rewind();
      continue;
    }
    switch (record.kind) {
      case RecordKind::kTxnBegin:
        VOODB_CHECK_MSG(!in_txn,
                        "nested transaction markers: the trace was recorded "
                        "under concurrent users and cannot be replayed as a "
                        "serial workload");
        in_txn = true;
        txn.kind = static_cast<ocb::TransactionKind>(record.id);
        break;
      case RecordKind::kObject:
        if (in_txn) {
          if (txn.accesses.empty()) txn.root = record.id;
          txn.accesses.push_back(ocb::ObjectAccess{record.id, record.write});
        }
        break;
      case RecordKind::kTxnEnd:
        if (in_txn) {
          ++replayed_;
          return;
        }
        break;
      case RecordKind::kTxnAbort:
        // The attempt recorded so far was discarded by concurrency
        // control; the retry re-records its accesses, so the replayed
        // transaction keeps only the attempt that committed.
        if (in_txn) {
          txn.accesses.clear();
          txn.root = 0;
        }
        break;
      case RecordKind::kPage:
        break;  // physical stream; irrelevant to the logical workload
    }
  }
}

}  // namespace voodb::trace

#include "ocb/ycsb.hpp"

#include "util/check.hpp"

namespace voodb::ocb {

YcsbZipfWorkload::YcsbZipfWorkload(const ObjectBase* base,
                                   desp::RandomStream stream)
    : base_(base), stream_(stream) {
  VOODB_CHECK_MSG(base_ != nullptr, "ycsb workload needs an object base");
  VOODB_CHECK_MSG(base_->NumObjects() > 0,
                  "ycsb workload needs a non-empty object base");
}

Transaction YcsbZipfWorkload::Next() {
  Transaction txn;
  NextInto(txn, nullptr);
  return txn;
}

Transaction YcsbZipfWorkload::NextOfKind(TransactionKind) { return Next(); }

void YcsbZipfWorkload::NextInto(Transaction& txn, const TransactionKind*) {
  const OcbParameters& params = base_->params();
  // Point accesses with no graph structure: kRandomAccess is the OCB
  // kind with the same semantics, so downstream accounting (per-kind
  // metrics, trace markers) stays meaningful.
  txn.kind = TransactionKind::kRandomAccess;
  txn.accesses.clear();
  txn.accesses.reserve(params.ycsb_ops_per_txn);
  for (uint32_t i = 0; i < params.ycsb_ops_per_txn; ++i) {
    ObjectAccess access;
    access.oid = static_cast<Oid>(
        stream_.Zipf(static_cast<int64_t>(base_->NumObjects()),
                     params.ycsb_skew));
    access.is_write = !stream_.Bernoulli(params.ycsb_read_pct);
    txn.accesses.push_back(access);
  }
  txn.root = txn.accesses.empty() ? kNullOid : txn.accesses.front().oid;
}

}  // namespace voodb::ocb

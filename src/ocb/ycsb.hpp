/// \file ycsb.hpp
/// \brief YCSB-style zipfian read/write-mix workload source.
///
/// The OCB traversals exercise the object graph; what they cannot express
/// is the cloud-serving access pattern the concurrency-control literature
/// sweeps — independent point accesses with a tunable hotspot.  This
/// source brings that half in: every transaction is `ycsb_ops_per_txn`
/// point accesses whose targets follow a Zipf law over the whole object
/// base and whose read/write mix is a coin flip per access.  Select it
/// with `workload_source = ycsb_zipf`; `VoodbSystem::Drive` substitutes
/// it for the caller's generator exactly like trace replay, so every
/// scenario (cc_abyss included) gains the axis without touching its run
/// hook.
#pragma once

#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/types.hpp"
#include "ocb/workload.hpp"

namespace voodb::ocb {

/// Deterministic (seeded) YCSB-style stream over an OCB object base.
/// Tunables (`ycsb_skew`, `ycsb_read_pct`, `ycsb_ops_per_txn`) come from
/// the OcbParameters the base was generated with, so sweeps drive them
/// through the ordinary parameter registry.
class YcsbZipfWorkload : public WorkloadSource {
 public:
  YcsbZipfWorkload(const ObjectBase* base, desp::RandomStream stream);

  /// The next transaction: ops_per_txn zipfian point accesses.
  Transaction Next() override;

  /// The stream has no transaction kinds to force; the request is
  /// ignored (documented no-op) and the next transaction is returned.
  Transaction NextOfKind(TransactionKind kind) override;

  /// Refills `txn`'s recycled buffer; the forced kind is ignored.
  void NextInto(Transaction& txn, const TransactionKind* kind) override;

 private:
  const ObjectBase* base_;
  desp::RandomStream stream_;
};

}  // namespace voodb::ocb

/// \file workload.hpp
/// \brief The OCB transaction generator (paper Table 5 workload).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "desp/random.hpp"
#include "ocb/object_base.hpp"
#include "ocb/types.hpp"

namespace voodb::ocb {

/// Anything that can supply the transaction stream of a run.  The
/// synthetic OCB generator below is the default implementation; the
/// trace subsystem provides a deterministic replay source
/// (`trace::TraceWorkload`) so one recorded run can be re-executed under
/// any system configuration.  The drivers (VoodbSystem, both emulators)
/// consume this interface.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Supplies the next transaction.
  virtual Transaction Next() = 0;

  /// Supplies a transaction of a forced kind (sources that replay a
  /// fixed stream may ignore the request and document doing so).
  virtual Transaction NextOfKind(TransactionKind kind) = 0;

  /// Overwrites `txn` with the next transaction (of `*kind`, when not
  /// null).  The drivers call this with a buffer they recycle, so a
  /// source that refills `txn.accesses` in place (clear, then append)
  /// reuses its capacity and, once the buffer has reached the largest
  /// transaction of the stream, generates without allocating.  The
  /// default move-assigns a fresh `Next()`/`NextOfKind()` result, which
  /// frees that capacity: correct, but not allocation-free.
  virtual void NextInto(Transaction& txn, const TransactionKind* kind) {
    txn = kind != nullptr ? NextOfKind(*kind) : Next();
  }
};

/// Generates the OCB transaction stream over a given object base.
///
/// Each call to Next() draws a transaction kind from the PSET / PSIMPLE /
/// PHIER / PSTOCH mix, a root object, and materializes the ordered list of
/// object accesses the transaction performs:
///
/// * **set-oriented access** — all objects reachable from the root within
///   SETDEPTH levels, breadth-first, each at most once;
/// * **simple traversal** — one random reference followed per level,
///   SIMDEPTH levels deep;
/// * **hierarchy traversal** — depth-first traversal of *all* references
///   down to HIEDEPTH (each object visited once when
///   `traversal_visits_once`, else once per path);
/// * **stochastic traversal** — a random walk of STODEPTH steps.
///
/// The generator is deterministic in its RandomStream seed and never
/// mutates the object base.
class WorkloadGenerator : public WorkloadSource {
 public:
  WorkloadGenerator(const ObjectBase* base, desp::RandomStream stream);

  /// Generates the next transaction.
  Transaction Next() override;

  /// Generates a transaction of a forced kind (used by the DSTC
  /// experiments, which run pure depth-3 hierarchy traversals).
  Transaction NextOfKind(TransactionKind kind) override;

  /// Generates into `txn`'s recycled buffer; the same draws, in the same
  /// order, as Next()/NextOfKind().
  void NextInto(Transaction& txn, const TransactionKind* kind) override;

  /// Total object accesses generated so far (all transactions).
  uint64_t GeneratedAccesses() const { return generated_accesses_; }

 private:
  TransactionKind PickKind();
  Oid PickRoot();
  /// Uniform draw among the non-null reference slots of `from`
  /// (kNullOid when every slot dangles).  The shared dangling-slot
  /// filter of the random traversals.
  Oid PickLiveReference(Oid from);
  bool MaybeWrite();
  void AppendAccess(Transaction& txn, Oid oid);
  void GenerateSetOriented(Transaction& txn, uint32_t depth);
  void GenerateSimple(Transaction& txn, uint32_t depth);
  void GenerateHierarchy(Transaction& txn, uint32_t depth);
  void GenerateStochastic(Transaction& txn, uint32_t steps);
  void GenerateRandomAccess(Transaction& txn, uint32_t count);
  void GenerateSequentialScan(Transaction& txn, uint64_t max_instances);
  void HierarchyVisit(Transaction& txn, Oid oid, uint32_t remaining);
  bool MarkVisited(Oid oid);

  const ObjectBase* base_;
  desp::RandomStream stream_;
  uint64_t generated_accesses_ = 0;
  // Epoch-stamped visited set: O(1) reset per transaction.
  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  /// Set-oriented access's breadth-first queue of (object, level).
  std::vector<std::pair<Oid, uint32_t>> frontier_;
};

}  // namespace voodb::ocb

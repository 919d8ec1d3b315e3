#include "ocb/workload.hpp"

#include <cmath>

#include "util/check.hpp"

namespace voodb::ocb {

const char* ToString(TransactionKind kind) {
  switch (kind) {
    case TransactionKind::kSetOriented:
      return "SET_ORIENTED";
    case TransactionKind::kSimpleTraversal:
      return "SIMPLE_TRAVERSAL";
    case TransactionKind::kHierarchyTraversal:
      return "HIERARCHY_TRAVERSAL";
    case TransactionKind::kStochasticTraversal:
      return "STOCHASTIC_TRAVERSAL";
    case TransactionKind::kRandomAccess:
      return "RANDOM_ACCESS";
    case TransactionKind::kSequentialScan:
      return "SEQUENTIAL_SCAN";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(const ObjectBase* base,
                                     desp::RandomStream stream)
    : base_(base), stream_(stream) {
  VOODB_CHECK_MSG(base_ != nullptr, "workload needs an object base");
  visit_stamp_.assign(base_->NumObjects(), 0);
}

Transaction WorkloadGenerator::Next() {
  Transaction txn;
  NextInto(txn, nullptr);
  return txn;
}

Transaction WorkloadGenerator::NextOfKind(TransactionKind kind) {
  Transaction txn;
  NextInto(txn, &kind);
  return txn;
}

TransactionKind WorkloadGenerator::PickKind() {
  const OcbParameters& p = base_->params();
  const double u = stream_.NextDouble();
  double cumulative = p.p_set;
  if (u < cumulative) return TransactionKind::kSetOriented;
  if (u < (cumulative += p.p_simple)) return TransactionKind::kSimpleTraversal;
  if (u < (cumulative += p.p_hierarchy)) {
    return TransactionKind::kHierarchyTraversal;
  }
  if (u < (cumulative += p.p_stochastic)) {
    return TransactionKind::kStochasticTraversal;
  }
  if (u < (cumulative += p.p_random_access)) {
    return TransactionKind::kRandomAccess;
  }
  return TransactionKind::kSequentialScan;
}

void WorkloadGenerator::NextInto(Transaction& txn,
                                 const TransactionKind* forced) {
  const OcbParameters& p = base_->params();
  txn.kind = forced != nullptr ? *forced : PickKind();
  txn.accesses.clear();
  txn.root = PickRoot();
  ++visit_epoch_;
  switch (txn.kind) {
    case TransactionKind::kSetOriented:
      GenerateSetOriented(txn, p.set_depth);
      break;
    case TransactionKind::kSimpleTraversal:
      GenerateSimple(txn, p.simple_depth);
      break;
    case TransactionKind::kHierarchyTraversal:
      GenerateHierarchy(txn, p.hierarchy_depth);
      break;
    case TransactionKind::kStochasticTraversal:
      GenerateStochastic(txn, p.stochastic_depth);
      break;
    case TransactionKind::kRandomAccess:
      GenerateRandomAccess(txn, p.random_access_count);
      break;
    case TransactionKind::kSequentialScan:
      GenerateSequentialScan(txn, p.scan_max_instances);
      break;
  }
  generated_accesses_ += txn.accesses.size();
}

Oid WorkloadGenerator::PickRoot() {
  const OcbParameters& p = base_->params();
  const auto full = static_cast<int64_t>(base_->NumObjects());
  auto no = full;
  int64_t stride = 1;
  if (p.root_region > 0 && static_cast<int64_t>(p.root_region) < full) {
    // Hot set: `root_region` objects strided evenly across the base.
    no = static_cast<int64_t>(p.root_region);
    stride = full / no;
  }
  int64_t index = 0;
  switch (p.root_distribution) {
    case Distribution::kUniform:
      index = stream_.UniformInt(0, no - 1);
      break;
    case Distribution::kZipf:
      index = stream_.Zipf(no, p.zipf_skew);
      break;
    case Distribution::kNormal: {
      const double raw =
          stream_.Normal(static_cast<double>(no) / 2.0,
                         static_cast<double>(no) / 6.0);
      index = static_cast<int64_t>(std::llround(raw));
      if (index < 0) index = 0;
      if (index >= no) index = no - 1;
      break;
    }
  }
  return static_cast<Oid>(index * stride);
}

bool WorkloadGenerator::MaybeWrite() {
  const double p = base_->params().p_update;
  return p > 0.0 && stream_.Bernoulli(p);
}

void WorkloadGenerator::AppendAccess(Transaction& txn, Oid oid) {
  txn.accesses.push_back(ObjectAccess{oid, MaybeWrite()});
}

bool WorkloadGenerator::MarkVisited(Oid oid) {
  if (visit_stamp_[oid] == visit_epoch_) return false;
  visit_stamp_[oid] = visit_epoch_;
  return true;
}

void WorkloadGenerator::GenerateSetOriented(Transaction& txn, uint32_t depth) {
  // Breadth-first set access: every distinct object within `depth` levels.
  // The queue is a recycled vector read from a moving head, so it keeps
  // its capacity from one transaction to the next.
  frontier_.clear();
  MarkVisited(txn.root);
  AppendAccess(txn, txn.root);
  frontier_.emplace_back(txn.root, 0);
  for (size_t head = 0; head < frontier_.size(); ++head) {
    const auto [oid, level] = frontier_[head];
    if (level >= depth) continue;
    for (Oid ref : base_->References(oid)) {
      if (ref == kNullOid || !MarkVisited(ref)) continue;
      AppendAccess(txn, ref);
      frontier_.emplace_back(ref, level + 1);
    }
  }
}

Oid WorkloadGenerator::PickLiveReference(Oid from) {
  // Uniform draw over the non-null slots of `from`'s CSR row, without
  // materializing them.  This is the single dangling-reference filter all
  // random traversals share: a kNullOid slot is skipped exactly as if the
  // slot did not exist (same rule the deterministic traversals apply
  // inline), so every traversal kind treats sparse bases identically.
  const OidSpan refs = base_->References(from);
  size_t live = 0;
  for (Oid r : refs) {
    if (r != kNullOid) ++live;
  }
  if (live == 0) return kNullOid;
  int64_t index = stream_.UniformInt(0, static_cast<int64_t>(live) - 1);
  for (Oid r : refs) {
    if (r == kNullOid) continue;
    if (index-- == 0) return r;
  }
  return kNullOid;  // unreachable
}

void WorkloadGenerator::GenerateSimple(Transaction& txn, uint32_t depth) {
  Oid current = txn.root;
  AppendAccess(txn, current);
  for (uint32_t level = 0; level < depth; ++level) {
    const Oid next = PickLiveReference(current);
    if (next == kNullOid) break;  // leaf
    current = next;
    AppendAccess(txn, current);
  }
}

void WorkloadGenerator::GenerateHierarchy(Transaction& txn, uint32_t depth) {
  MarkVisited(txn.root);
  AppendAccess(txn, txn.root);
  HierarchyVisit(txn, txn.root, depth);
}

void WorkloadGenerator::HierarchyVisit(Transaction& txn, Oid oid,
                                       uint32_t remaining) {
  if (remaining == 0) return;
  const bool visit_once = base_->params().traversal_visits_once;
  for (Oid ref : base_->References(oid)) {
    if (ref == kNullOid) continue;
    if (visit_once) {
      if (!MarkVisited(ref)) continue;
    }
    AppendAccess(txn, ref);
    HierarchyVisit(txn, ref, remaining - 1);
  }
}

void WorkloadGenerator::GenerateRandomAccess(Transaction& txn,
                                             uint32_t count) {
  // The root was already chosen; it counts as the first access.  The
  // remaining draws are independent and uniform over the whole base
  // (ignoring the hot-root restriction: random accesses model index or
  // dictionary lookups).
  txn.accesses.reserve(count == 0 ? 1 : count);
  AppendAccess(txn, txn.root);
  const desp::UniformBelow any_object(base_->NumObjects());
  for (uint32_t i = 1; i < count; ++i) {
    AppendAccess(txn, stream_.Below(any_object));
  }
}

void WorkloadGenerator::GenerateSequentialScan(Transaction& txn,
                                               uint64_t max_instances) {
  // Scan every instance of the root's class in OID order (instances of
  // class c are the OIDs congruent to c modulo NC, by construction).
  const ClassId cls = base_->ClassOf(txn.root);
  const uint64_t nc = base_->schema().NumClasses();
  uint64_t scanned = 0;
  for (Oid oid = cls; oid < base_->NumObjects(); oid += nc) {
    if (max_instances > 0 && scanned >= max_instances) break;
    AppendAccess(txn, oid);
    ++scanned;
  }
}

void WorkloadGenerator::GenerateStochastic(Transaction& txn, uint32_t steps) {
  Oid current = txn.root;
  AppendAccess(txn, current);
  for (uint32_t step = 0; step < steps; ++step) {
    const Oid next = PickLiveReference(current);
    if (next == kNullOid) break;
    current = next;
    AppendAccess(txn, current);
  }
}

}  // namespace voodb::ocb

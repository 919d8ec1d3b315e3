/// \file test_null_oid_sparsity.cpp
/// \brief Dangling-reference (kNullOid) handling on maximally sparse
/// bases.
///
/// A base generated with more classes than objects leaves whole classes
/// empty, so every reference slot demanding such a class stays kNullOid;
/// OLOCREF = 1 additionally collapses the locality window.  Every
/// traversal kind of `ocb::Workload` and the clustering policies'
/// statistics collection must skip those slots identically: no generated
/// access and no collected link may ever name kNullOid, and reclustering
/// such a base must not move phantom objects.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cluster/dstc.hpp"
#include "cluster/gay_gruenwald.hpp"
#include "ocb/workload.hpp"
#include "storage/placement.hpp"

namespace voodb {
namespace {

using ocb::ObjectBase;
using ocb::OcbParameters;
using ocb::Oid;
using ocb::Transaction;
using ocb::TransactionKind;
using ocb::WorkloadGenerator;

/// NC > NO with OLOCREF = 1: the sparsest base the generator can emit.
OcbParameters SparseParams() {
  OcbParameters p;
  p.num_classes = 64;
  p.num_objects = 40;
  p.object_locality = 1;
  p.max_refs_per_class = 6;
  p.p_update = 0.2;
  p.seed = 13;
  return p;
}

TEST(NullOidSparsity, SparseBaseActuallyDangles) {
  const ObjectBase base = ObjectBase::Generate(SparseParams());
  uint64_t null_slots = 0;
  uint64_t slots = 0;
  for (Oid oid = 0; oid < base.NumObjects(); ++oid) {
    for (Oid ref : base.References(oid)) {
      ++slots;
      null_slots += ref == ocb::kNullOid ? 1 : 0;
    }
  }
  ASSERT_GT(slots, 0u);
  ASSERT_GT(null_slots, 0u) << "precondition: the base must dangle";
}

TEST(NullOidSparsity, EveryTraversalKindSkipsDanglingSlots) {
  const ObjectBase base = ObjectBase::Generate(SparseParams());
  WorkloadGenerator workload(&base, desp::RandomStream(99));
  const TransactionKind kinds[] = {
      TransactionKind::kSetOriented,      TransactionKind::kSimpleTraversal,
      TransactionKind::kHierarchyTraversal,
      TransactionKind::kStochasticTraversal,
      TransactionKind::kRandomAccess,     TransactionKind::kSequentialScan,
  };
  for (const TransactionKind kind : kinds) {
    for (int i = 0; i < 50; ++i) {
      const Transaction txn = workload.NextOfKind(kind);
      ASSERT_NE(txn.root, ocb::kNullOid);
      for (const ocb::ObjectAccess& access : txn.accesses) {
        ASSERT_NE(access.oid, ocb::kNullOid) << ToString(kind);
        ASSERT_LT(access.oid, base.NumObjects()) << ToString(kind);
      }
    }
  }
}

/// Drives `policy` with the mixed workload and reclusters; no collected
/// statistic or cluster member may name kNullOid or an out-of-range OID.
void ExercisePolicy(cluster::ClusteringPolicy& policy) {
  const ObjectBase base = ObjectBase::Generate(SparseParams());
  const storage::Placement placement = storage::Placement::Build(
      base, 512, storage::PlacementPolicy::kOptimizedSequential);
  WorkloadGenerator workload(&base, desp::RandomStream(5));
  for (int t = 0; t < 300; ++t) {
    const Transaction txn = workload.Next();
    policy.OnTransactionStart();
    for (const ocb::ObjectAccess& access : txn.accesses) {
      policy.OnObjectAccess(access.oid, access.is_write);
    }
    policy.OnTransactionEnd();
  }
  const cluster::ClusteringOutcome outcome =
      policy.Recluster(base, placement);
  std::set<Oid> seen;
  std::vector<Oid> in_cluster_order;
  for (const auto& fragment : outcome.clusters) {
    for (Oid oid : fragment) {
      EXPECT_NE(oid, ocb::kNullOid);
      EXPECT_LT(oid, base.NumObjects());
      EXPECT_TRUE(seen.insert(oid).second);
      in_cluster_order.push_back(oid);
    }
  }
  // The moved set is the cluster objects in cluster order, each once.
  EXPECT_EQ(outcome.moved_objects, in_cluster_order);
}

TEST(NullOidSparsity, DstcCollectsNoNullLinks) {
  cluster::DstcParameters params;
  params.observation_period = 10;
  cluster::DstcPolicy policy(params);
  ExercisePolicy(policy);
}

TEST(NullOidSparsity, GayGruenwaldExpandsAcrossDanglingSlots) {
  cluster::GayGruenwaldParameters params;
  params.observation_period = 10;
  cluster::GayGruenwaldPolicy policy(params);
  ExercisePolicy(policy);
}

/// The workload's uniform dangling-slot filter and DSTC's link collection
/// agree: a traversal over the sparse base feeds DSTC only OIDs the
/// traversal itself emitted, so every tracked link endpoint is a real
/// object (frequency > 0 implies it appeared in a transaction).
TEST(NullOidSparsity, WorkloadAndDstcAgreeOnLiveObjects) {
  const ObjectBase base = ObjectBase::Generate(SparseParams());
  WorkloadGenerator workload(&base, desp::RandomStream(77));
  cluster::DstcParameters params;
  params.observation_period = 1;
  cluster::DstcPolicy policy(params);
  std::set<Oid> emitted;
  for (int t = 0; t < 200; ++t) {
    const Transaction txn =
        workload.NextOfKind(TransactionKind::kHierarchyTraversal);
    policy.OnTransactionStart();
    for (const ocb::ObjectAccess& access : txn.accesses) {
      emitted.insert(access.oid);
      policy.OnObjectAccess(access.oid, access.is_write);
    }
    policy.OnTransactionEnd();
  }
  EXPECT_EQ(policy.TrackedObjects(), emitted.size());
  EXPECT_EQ(emitted.count(ocb::kNullOid), 0u);
}

}  // namespace
}  // namespace voodb

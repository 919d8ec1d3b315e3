/// \file policy.hpp
/// \brief The Clustering Manager's pluggable policy interface.
///
/// In the VOODB knowledge model (Fig. 4) the Clustering Manager is the
/// *only* component that changes when two clustering algorithms are
/// compared.  This interface captures its three functioning rules:
///
/// * "Perform treatment related to clustering (statistics collection)" —
///   the On* observation callbacks, invoked after each object operation;
/// * automatic / external triggering — ShouldTrigger();
/// * "Perform Clustering" — Recluster(), which computes the cluster
///   fragments to relocate.  The *cost* of relocating them is charged by
///   the host system (the DES model or an emulator), because it depends
///   on the host's OID scheme: logical OIDs touch only moved pages,
///   physical OIDs force a full database scan to patch references (paper
///   §4.4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ocb/object_base.hpp"
#include "ocb/types.hpp"
#include "storage/placement.hpp"

namespace voodb::cluster {

/// Result of one reorganization decision.
struct ClusteringOutcome {
  /// False when the policy found nothing worth moving.
  bool reorganized = false;
  /// The cluster fragments built (ordered object sequences, size >= 2).
  std::vector<std::vector<ocb::Oid>> clusters;
  /// Objects that changed position w.r.t. the previous placement: the
  /// cluster objects in cluster order, each exactly once.  Unclustered
  /// objects stay where they are.
  std::vector<ocb::Oid> moved_objects;

  uint64_t NumClusters() const { return clusters.size(); }
  double MeanClusterSize() const;
};

/// Interface of a clustering technique (Table 3's CLUSTP parameter).
class ClusteringPolicy {
 public:
  virtual ~ClusteringPolicy() = default;

  virtual const char* name() const = 0;

  /// Observation callbacks, driven by the Transaction Manager.
  virtual void OnTransactionStart() {}
  virtual void OnObjectAccess(ocb::Oid oid, bool is_write) = 0;
  virtual void OnTransactionEnd() {}

  /// Automatic triggering: true when collected statistics warrant a
  /// reorganization.  The Users may also trigger externally by calling
  /// Recluster() directly (knowledge model: "External triggering").
  virtual bool ShouldTrigger() const = 0;

  /// Computes the reorganization against the current placement.
  /// Consumes the collected statistics (a new observation phase starts).
  virtual ClusteringOutcome Recluster(const ocb::ObjectBase& base,
                                      const storage::Placement& current) = 0;

  /// Drops all collected statistics.
  virtual void Reset() {}
};

/// CLUSTP = None: observes nothing, never triggers.
class NoClustering final : public ClusteringPolicy {
 public:
  const char* name() const override { return "NONE"; }
  void OnObjectAccess(ocb::Oid, bool) override {}
  bool ShouldTrigger() const override { return false; }
  ClusteringOutcome Recluster(const ocb::ObjectBase&,
                              const storage::Placement&) override {
    return ClusteringOutcome{};
  }
};

/// Helper shared by policies: checks `clusters` (each of >= 2 objects of
/// `base`, no object in two clusters) and computes the moved set.
ClusteringOutcome FinalizeOutcome(
    std::vector<std::vector<ocb::Oid>> clusters, const ocb::ObjectBase& base);

}  // namespace voodb::cluster

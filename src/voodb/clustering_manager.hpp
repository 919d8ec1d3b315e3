/// \file clustering_manager.hpp
/// \brief The Clustering Manager active resource (knowledge model, Fig. 4).
///
/// "Perform treatment related to clustering (statistics collection)" after
/// every object operation, and "Perform Clustering" when triggered —
/// automatically after a transaction, or externally by the Users.  The
/// reorganization is charged as disk I/O through the I/O Subsystem: moved
/// objects' source pages are read (unless buffered) and the fresh cluster
/// pages are written.  The simulation model uses logical OIDs, so no
/// reference-patching scan is needed (paper §4.4 — this is precisely why
/// the simulated clustering overhead is ~36x smaller than the measured
/// one on Texas, which uses physical OIDs).
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/policy.hpp"
#include "desp/actor.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "voodb/buffering_manager.hpp"
#include "voodb/io_subsystem.hpp"
#include "voodb/metrics.hpp"
#include "voodb/object_manager.hpp"

namespace voodb::obs {
class MetricRegistry;
}  // namespace voodb::obs

namespace voodb::core {

/// The Clustering Manager actor.
class ClusteringManagerActor : public desp::Actor {
 public:
  ClusteringManagerActor(desp::Scheduler* scheduler,
                         std::unique_ptr<cluster::ClusteringPolicy> policy,
                         ObjectManagerActor* object_manager,
                         BufferingManagerActor* buffering,
                         IoSubsystemActor* io);

  /// Observation hooks (driven by the Transaction Manager).
  void OnTransactionStart();
  void OnObjectAccess(ocb::Oid oid, bool is_write);
  void OnTransactionEnd();

  /// Automatic-trigger test.
  bool ShouldTrigger() const;

  /// Runs the reclustering and calls `done` once the reorganization I/O
  /// has completed on the disk; last_metrics() then describes it.
  void PerformClustering(desp::Scheduler::Action done);
  /// Metrics of the latest PerformClustering, complete once its `done`
  /// has run.
  const ClusteringMetrics& last_metrics() const { return last_metrics_; }

  const cluster::ClusteringPolicy& policy() const { return *policy_; }
  bool enabled() const;

  /// Totals across all reorganizations so far.
  uint64_t total_overhead_ios() const { return total_overhead_ios_; }
  uint64_t reorganizations() const { return reorganizations_; }

  /// Registers the reorganization counters with `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  std::unique_ptr<cluster::ClusteringPolicy> policy_;
  ObjectManagerActor* object_manager_;
  BufferingManagerActor* buffering_;
  IoSubsystemActor* io_;
  /// `done` continuations of reorganizations whose I/O is in flight.
  desp::SlotPool<desp::Scheduler::Action> parked_;
  ClusteringMetrics last_metrics_;
  uint64_t total_overhead_ios_ = 0;
  uint64_t reorganizations_ = 0;
};

}  // namespace voodb::core

/// \file experiment.hpp
/// \brief Replicated VOODB experiments with confidence intervals.
///
/// Packages the paper's experimental protocol (§4.2.2): an experiment is
/// (system config, OCB workload, clustering module) run as n independent
/// replications; every metric is reported as a sample mean with a 95 %
/// Student-t confidence interval.  The object base is generated once from
/// the OCB seed (the paper benchmarks a fixed database with random
/// transactions); per-replication randomness drives the workload stream
/// and any stochastic system behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cluster/policy.hpp"
#include "desp/replication.hpp"
#include "exp/farm.hpp"
#include "ocb/object_base.hpp"
#include "ocb/parameters.hpp"
#include "voodb/config.hpp"
#include "voodb/metrics.hpp"
#include "voodb/system.hpp"

namespace voodb::core {

/// Creates the CLUSTP module for one replication (nullptr factory or a
/// factory returning nullptr both mean "None").
using ClusteringFactory =
    std::function<std::unique_ptr<cluster::ClusteringPolicy>()>;

/// One experiment definition.
struct ExperimentConfig {
  VoodbConfig system;
  ocb::OcbParameters workload;
  ClusteringFactory make_policy;  ///< optional; must be thread-safe when
                                  ///< threads > 1 (called once per
                                  ///< replication, possibly concurrently)
  uint64_t replications = 10;     ///< the paper uses 100
  uint64_t base_seed = 42;
  /// Worker threads for the replication farm: 1 runs serially on the
  /// calling thread, 0 uses all hardware threads.  Results are
  /// bit-identical at any setting (see exp/farm.hpp).
  size_t threads = 1;
};

/// Runs replicated experiments over a shared object base.
class Experiment {
 public:
  /// Metric names observed per replication:
  /// "total_ios", "reads", "writes", "hit_rate", "mean_response_ms",
  /// "throughput_tps", "sim_time_ms", "object_accesses".
  /// The run executes COLDN unmeasured then HOTN measured transactions.
  static desp::ReplicationResult Run(const ExperimentConfig& config);

  /// Like Run but reuses an already generated object base (sweeps that
  /// vary only system parameters share the base across points).
  static desp::ReplicationResult RunOnBase(const ExperimentConfig& config,
                                           const ocb::ObjectBase& base);

  /// Convenience: the mean of "total_ios" from Run (the paper's headline
  /// "mean number of I/Os" metric).
  static double MeanTotalIos(const ExperimentConfig& config);

  /// The per-replication model behind Run/RunOnBase: builds a VoodbSystem
  /// for the seed, runs COLDN + HOTN transactions, observes the metrics
  /// listed on Run.  `config` is captured by value; `base` must outlive
  /// the returned model.  Exposed so the exp layer (farm / sweep grids)
  /// can schedule experiment replications itself.
  static exp::ReplicationFarm::Model MakeModel(ExperimentConfig config,
                                               const ocb::ObjectBase* base);
};

}  // namespace voodb::core

/// \file experiment.hpp
/// \brief One VOODB experiment definition: system, workload, CLUSTP.
///
/// The paper's experimental protocol (§4.2.2) runs (system config, OCB
/// workload, clustering module) as n independent replications and
/// reports every metric as a sample mean with a 95 % Student-t confidence
/// interval.  This struct is the "what"; an `exp::Cell` adds the
/// transaction count and `exp::RunCells` the replications, seed chain
/// and thread count.  The object base is generated once from the OCB seed
/// (the paper benchmarks a fixed database with random transactions);
/// per-replication randomness drives the workload stream and any
/// stochastic system behaviour.
#pragma once

#include <functional>
#include <memory>

#include "cluster/policy.hpp"
#include "ocb/parameters.hpp"
#include "voodb/config.hpp"

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
                                  ///< the run has threads > 1 (called
                                  ///< once per replication, possibly
                                  ///< concurrently)
};

}  // namespace voodb::core

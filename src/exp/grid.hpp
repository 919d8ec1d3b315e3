/// \file grid.hpp
/// \brief The (point × replication) pool behind every replicated
/// experiment.
///
/// Darmont et al.'s benchmark methodology runs every figure and table as
/// the generic model replicated under many parameter sets (§4.2.2).
/// `RunGrid` executes (point × replication) work items on one shared
/// thread pool with the same determinism contract as the farm; every
/// point uses the *same* replication-seed chain (common random numbers),
/// so a point is bit-identical to a standalone `ReplicationFarm::Run` of
/// its model with the same base seed — and cross-point comparisons have
/// lower variance.
///
/// `exp::RunCells` (scenario.hpp) is the library's one caller: a point is
/// one table cell, a fully resolved VOODB configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "desp/replication.hpp"
#include "exp/farm.hpp"

namespace voodb::exp {

/// Runs `replications` of each of `num_points` models concurrently on one
/// pool.  `make_model(p)` builds point p's model; it is called serially in
/// point order before any replication runs.  Work items are (point,
/// replication) pairs, so the pool stays busy even when points have
/// unequal cost.  Results are reduced per point in replication order (see
/// farm.hpp for the determinism contract) and returned in point order.
std::vector<desp::ReplicationResult> RunGrid(
    size_t num_points,
    const std::function<ReplicationFarm::Model(size_t point)>& make_model,
    uint64_t replications, const FarmOptions& options);

}  // namespace voodb::exp

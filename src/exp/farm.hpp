/// \file farm.hpp
/// \brief The replication engine: (point × replication) work on one pool,
/// bit-deterministic at any thread count.
///
/// Darmont et al.'s benchmark methodology runs every figure and table as
/// the generic model replicated under many parameter sets (§4.2.2).
/// `RunGrid` executes (point × replication) work items serially on the
/// calling thread (`threads = 1`) or on a worker pool.  Determinism
/// contract:
///
///  1. Replication seeds are derived — a SplitMix64 chain from the base
///     seed — *before* any work is scheduled, so replication i sees the
///     same seed at any thread count.  Every point uses the *same* chain
///     (common random numbers), so cross-point comparisons have lower
///     variance.
///  2. Each replication records its `desp::MetricSink` observations into a
///     slot indexed by its (point, replication) pair.
///  3. After all replications finish, each point's observations are
///     reduced in replication order via the parallel-combinable
///     `Tally::Merge`.
///
/// Scheduling order therefore never influences the result: a run with one
/// thread and a run with N threads produce bit-identical
/// `desp::ReplicationResult`s (every metric's count, mean, variance,
/// min and max).
///
/// Metrics are scalars.  A distribution enters as statistics estimated
/// once per replication (a percentile, a maximum), so the reduction gives
/// each a mean and a Student-t CI across replications (Law & Kelton,
/// *Simulation Modeling and Analysis*, ch. 9) like any other metric.
///
/// `exp::RunCells` (scenario.hpp) runs every scenario through `RunGrid`:
/// a point is one table cell, a fully resolved VOODB configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "desp/replication.hpp"

namespace voodb::exp {

/// Configuration of a replicated run.
struct FarmOptions {
  /// Worker threads; 0 means "all hardware threads", 1 runs inline on the
  /// calling thread (no pool is created).
  size_t threads = 0;
  /// Base seed of the SplitMix64 replication-seed chain.
  uint64_t base_seed = 42;
};

/// A model maps (seed, sink) to observations; it must be deterministic in
/// the seed.
using Model = std::function<void(uint64_t seed, desp::MetricSink& sink)>;

/// Runs `replications` of each of `num_points` models concurrently on one
/// pool.  `make_model(p)` builds point p's model; it is called serially in
/// point order before any replication runs.  Work items are (point,
/// replication) pairs, so the pool stays busy even when points have
/// unequal cost.  Results are returned in point order.  Exceptions thrown
/// by a model are rethrown here (first one wins; unclaimed work items are
/// skipped).
std::vector<desp::ReplicationResult> RunGrid(
    size_t num_points, const std::function<Model(size_t point)>& make_model,
    uint64_t replications, const FarmOptions& options);

/// The paper's pilot-study protocol (§4.2.2): a pilot of `pilot_n`
/// replications of `model`, then enough replications that `metric`'s CI
/// half-width is within `relative_precision` of its mean (e.g. 0.05 for
/// "within 5 % of the sample mean with 95 % confidence"), capped at
/// `max_n`.  The final pass re-runs from scratch, so the estimate comes
/// from one pass of the seed chain.
desp::ReplicationResult RunToPrecision(const Model& model,
                                       const FarmOptions& options,
                                       const std::string& metric,
                                       double relative_precision,
                                       uint64_t pilot_n = 10,
                                       uint64_t max_n = 100,
                                       double level = 0.95);

/// The per-replication seed chain (SplitMix64 from `base_seed`).
std::vector<uint64_t> DeriveSeeds(uint64_t base_seed, uint64_t n);

/// Order-deterministic reduction: merges per-replication observations
/// (slot i = replication i) into a result, in replication order.
desp::ReplicationResult Reduce(
    const std::vector<std::map<std::string, double>>& per_replication);

}  // namespace voodb::exp

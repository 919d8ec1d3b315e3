/// \file farm.hpp
/// \brief Parallel, bit-deterministic replication engine.
///
/// `ReplicationFarm` runs the paper's independent replications, serially
/// on the calling thread (`threads = 1`) or on a worker pool.
/// Determinism contract:
///
///  1. Replication seeds are derived — a SplitMix64 chain from the base
///     seed — *before* any task is scheduled, so replication i sees the
///     same seed at any thread count.
///  2. Each replication records its `desp::MetricSink` observations into a
///     slot indexed by its replication number.
///  3. After all replications finish, per-metric results are reduced in
///     replication order via the parallel-combinable `Tally::Merge`.
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
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "desp/replication.hpp"

namespace voodb::exp {

/// Configuration of a farm run.
struct FarmOptions {
  /// Worker threads; 0 means "all hardware threads", 1 runs inline on the
  /// calling thread (no pool is created).
  size_t threads = 0;
  /// Base seed of the SplitMix64 replication-seed chain.
  uint64_t base_seed = 42;
};

/// Runs a replication model concurrently with deterministic results.
class ReplicationFarm {
 public:
  /// A model maps (seed, sink) to observations; it must be deterministic
  /// in the seed.
  using Model = std::function<void(uint64_t seed, desp::MetricSink& sink)>;

  explicit ReplicationFarm(Model model, FarmOptions options = {});

  /// Runs `n` replications on the pool and reduces deterministically.
  /// Exceptions thrown by the model are rethrown here (first one wins;
  /// outstanding replications are cancelled).
  desp::ReplicationResult Run(uint64_t n) const;

  /// The paper's pilot-study protocol (§4.2.2): a pilot of `pilot_n`,
  /// then enough additional replications that `metric`'s CI half-width is
  /// within `relative_precision` of its mean (e.g. 0.05 for "within 5 % of
  /// the sample mean with 95 % confidence"), capped at `max_n`.  The pilot
  /// and the final pass are both farmed out.
  desp::ReplicationResult RunToPrecision(const std::string& metric,
                                         double relative_precision,
                                         uint64_t pilot_n = 10,
                                         uint64_t max_n = 100,
                                         double level = 0.95) const;

  /// The per-replication seed chain (SplitMix64 from `base_seed`); exposed
  /// so callers and tests can cross-check the derivation.
  static std::vector<uint64_t> DeriveSeeds(uint64_t base_seed, uint64_t n);

  /// Order-deterministic reduction: merges per-replication observations
  /// (slot i = replication i) into a result, in replication order.
  static desp::ReplicationResult Reduce(
      const std::vector<std::map<std::string, double>>& per_replication);

  const FarmOptions& options() const { return options_; }

 private:
  Model model_;
  FarmOptions options_;
};

}  // namespace voodb::exp

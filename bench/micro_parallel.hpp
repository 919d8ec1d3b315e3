/// \file micro_parallel.hpp
/// \brief The conservative parallel kernel's micro bench as a catalog
/// scenario.
///
/// A multi-partition event workload (per-partition self-rescheduling
/// chains plus cross-partition pings under a fixed lookahead) executed
/// serially and on thread pools of increasing size.  Every pooled run is
/// digest-checked against the serial reference — the scenario *fails* on
/// any divergence, so the speedup column can never be bought with a
/// correctness bug.  `voodb run micro_parallel` records the results in
/// BENCH_micro_parallel.json through the shared recorder.
///
/// Wall-clock speedup requires free hardware parallelism: on a
/// single-core box every cell times out at ~1x and only the identity
/// check is meaningful (it holds everywhere).
///
/// Protocol-knob mapping (micro benches have no model config):
///   --transactions=N   chains per partition, N*120 events each trial
///   --replications=N   timed trials per cell
#pragma once

#include "exp/scenario.hpp"

namespace voodb::bench {

/// Run hook of the `micro_parallel` scenario.
exp::ScenarioResult RunMicroParallelScenario(const exp::ScenarioContext& ctx);

}  // namespace voodb::bench

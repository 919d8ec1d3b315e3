/// \file micro_trace.hpp
/// \brief The trace-subsystem scenarios: MRC analytics and the micro
/// bench.
///
/// Three catalog entries exercise the trace pipeline end to end:
///
///   trace_mrc   records one fixed-seed VOODB simulation run, replays it
///               to verify the recorded counters are reproduced
///               bit-exactly, and prints the one-pass Mattson analytics
///               (hit-ratio curve, working set, reuse distances, class
///               skew).
///   fig08_mrc   Figure 8's cache-size curve computed from ONE recorded
///               O2 run: a single Mattson pass yields the exact LRU hit
///               count at every swept cache size, cross-checked (exact
///               equality enforced) against a trace replay AND a fresh
///               emulator simulation per size; reports the
///               MRC-vs-N-simulations speedup.
///   micro_trace the trace micro bench (BENCH_micro_trace.json):
///               record overhead vs an untraced run, replay throughput,
///               and the single-pass-MRC speedup over per-size replays
///               and per-size simulations.
#pragma once

#include <vector>

#include "exp/scenario.hpp"

namespace voodb::bench {

/// The six memory points (MB) of Figures 8/11, the cache sizes fig08_mrc
/// and the micro bench evaluate.
const std::vector<double>& MemoryPoints();

exp::ScenarioResult RunTraceMrcScenario(const exp::ScenarioContext& ctx);
exp::ScenarioResult RunFig08MrcScenario(const exp::ScenarioContext& ctx);
exp::ScenarioResult RunMicroTraceScenario(const exp::ScenarioContext& ctx);

}  // namespace voodb::bench

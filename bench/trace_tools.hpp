/// \file trace_tools.hpp
/// \brief The `voodb trace record|replay|analyze` subcommands.
///
/// The trace workflow the driver exposes:
///
///   voodb trace record --out=run.vtrc [--scenario=fig08] [--set k=v ...]
///       records one fixed-seed run — the VOODB simulation by default,
///       or either direct-execution emulator via --system=o2|texas —
///       into a compact columnar trace.
///   voodb trace replay --in=run.vtrc [--buffer-pages=N] [--policy=lru]
///       feeds the recorded page stream through a fresh buffer manager
///       under any replacement policy / capacity; --verify exits
///       non-zero unless the recorded run's hit/miss/eviction/write-back
///       counters are reproduced bit-exactly.
///   voodb trace analyze --in=run.vtrc [--sizes=256,1024,4096]
///       one-pass Mattson stack-distance analytics: the exact LRU
///       hit-ratio curve at every cache size, the reuse-distance
///       histogram, working-set size and per-class access skew.
///
/// The trace scenarios live here too, so the subcommands and the catalog
/// entries exercise the same code:
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
#pragma once

#include <vector>

#include "exp/scenario.hpp"

namespace voodb::bench {

/// Entry point for `voodb trace ...`; `argv` starts after the "trace"
/// word.  Returns a process exit code.
int RunTraceCommand(int argc, const char* const* argv);

/// The six memory points (MB) of Figures 8/11, the cache sizes fig08_mrc
/// evaluates.
const std::vector<double>& MemoryPoints();

exp::ScenarioResult RunTraceMrcScenario(const exp::ScenarioContext& ctx);
exp::ScenarioResult RunFig08MrcScenario(const exp::ScenarioContext& ctx);

}  // namespace voodb::bench

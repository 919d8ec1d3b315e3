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
/// Shared helpers used by the trace scenarios (`trace_mrc`,
/// `fig08_mrc`, `micro_trace`) live here too, so the subcommands and the
/// catalog entries exercise the same code.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "emu/o2_emulator.hpp"
#include "exp/scenario.hpp"
#include "trace/format.hpp"
#include "voodb/config.hpp"

namespace voodb::bench {

/// Entry point for `voodb trace ...`; `argv` starts after the "trace"
/// word.  Returns a process exit code.
int RunTraceCommand(int argc, const char* const* argv);

/// Header describing an O2-emulator recording (`num_pages` from the
/// built emulator's placement).  Shared by the record subcommand, the
/// micro bench's hand-rolled timing loops, and RecordO2Trace.
trace::Header O2TraceHeader(const emu::O2Config& config,
                            const ocb::ObjectBase& base, uint64_t num_pages,
                            uint64_t seed);

/// Records `transactions` fixed-seed transactions of the O2 emulator
/// (built from `config` over `base`) onto `os` and finishes the trace
/// with the emulator's cache counters.  The recorded page stream is
/// independent of the cache size, so one recording serves every
/// replayed configuration.
void RecordO2Trace(const emu::O2Config& config, const ocb::ObjectBase& base,
                   uint64_t transactions, uint64_t seed, std::ostream& os);

/// Records replication `seed` of `cell`'s simulation over `base` to
/// `path` (trace_record / trace_path are set here): its phases as
/// `voodb run` drives them (`exp::RunCellPhases`).  Returns the finished
/// trace's counters.
trace::TraceCounters RecordSimulationTrace(exp::Cell cell,
                                           const ocb::ObjectBase& base,
                                           uint64_t seed,
                                           const std::string& path);

}  // namespace voodb::bench

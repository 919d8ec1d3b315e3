/// \file cell_tools.hpp
/// \brief The tools that instrument one scenario cell: `voodb profile`,
/// `voodb explain`, and the cell resolution they share with
/// `voodb trace record`.
///
/// Each tool runs replication 0 of one scenario cell: `--set` resolved
/// exactly as `voodb run` resolves it (`exp::ResolveScenario`: the same
/// swept, emulator-only and validation checks), the cell picked with
/// `--cell=<label>` (the base config of a scenario without cells), and
/// replication 0's seed of the run's seed chain.  So a tool instruments
/// the very simulation behind a table row, and `--transactions` /
/// `--seed` mean what they mean to `voodb run`.
///
///   voodb profile cc_abyss --cell=64/wait_die [--transactions=N]
///                 [--seed=N] [--set k=v ...]
///       runs the cell with the observability layer attached and prints
///       the per-actor simulated-time breakdown (where does simulated
///       time go: transaction manager, I/O subsystem, lock waits, ...)
///       and the end-to-end response-time percentiles.  It also writes a
///       Chrome-trace timeline (chrome://tracing or Perfetto) and the
///       metric snapshot as JSON, unless --trace / --metrics is "off".
///   voodb explain cc_abyss --cell=1024/wait_die [--top K] [...]
///       runs the cell with causal span tracing on and explains where
///       the tail's response time went: the per-component critical-path
///       table (lock wait, IO, network, CPU, abort/retry), then the K
///       slowest transactions' span trees as text breakdowns, plus a
///       Perfetto/Chrome-trace JSON export of those exemplars.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "voodb/metrics.hpp"

namespace voodb::bench {

/// One resolved tool run.
struct CellRun {
  std::string scenario;  ///< scenario name
  exp::Cell cell;        ///< config and transaction count to run
  uint64_t seed = 0;     ///< replication 0's seed of the run's seed chain
};

/// Resolves replication 0 of `scenario`'s cell `cell` (its base config
/// when the scenario declares no cells) under `overrides`, for a run of
/// `voodb run --transactions=<transactions> --seed=<seed>`.
CellRun ResolveCellRun(const exp::Scenario& scenario, const std::string& cell,
                       uint64_t transactions, uint64_t seed,
                       const std::vector<exp::ParamOverride>& overrides);

/// Entry points for `voodb profile|explain ...`; `argv` starts at the
/// tool word.  Return a process exit code; configuration errors are
/// reported on stderr.
int RunProfileCommand(int argc, const char* const* argv);
int RunExplainCommand(int argc, const char* const* argv);

/// Profiles `run` and prints the report; writes the Chrome trace to
/// `trace_path` and the metric snapshot to `metrics_path` ("off" disables
/// either).  Returns the run's metrics.
core::PhaseMetrics ProfileCell(const CellRun& run,
                               const std::string& trace_path,
                               const std::string& metrics_path);

/// Explains `run`, keeping the `top` slowest span trees, and prints the
/// report; writes the exemplars' Perfetto trace to `trace_path` unless it
/// is "off".  Returns the run's metrics.
core::PhaseMetrics ExplainCell(const CellRun& run, uint32_t top,
                               const std::string& trace_path);

}  // namespace voodb::bench

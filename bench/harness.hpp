/// \file harness.hpp
/// \brief Shared machinery for the figure/table reproduction harnesses.
///
/// Every figure/table scenario of the catalog (`voodb run <scenario>`)
/// regenerates one figure or table of the paper's evaluation section
/// (§4) from its table cells (`exp::RunCells`).  The "Benchmark" series
/// is a cell's direct-execution emulator leg (src/emu), the "Simulation"
/// series its VOODB discrete-event model (src/voodb); the paper's own
/// numbers are embedded for side-by-side comparison (values read off the
/// published figures are approximate and labelled as such).
///
/// Replications run on `exp::RunGrid` (src/exp/farm.hpp): all worker
/// threads by default, bit-identical results at any thread count.  Unless disabled,
/// every run also drops a machine-readable `BENCH_<scenario>.json` (per
/// point/metric mean, CI half-width, replication count, wall clock) so the
/// performance trajectory can be tracked across PRs.
///
/// Common flags (every `voodb run`):
///   --replications=N   independent replications per point (default 10;
///                      the paper used 100 — pass --replications=100 to
///                      match, at ~10x the runtime)
///   --transactions=N   transactions per replication (default 1000, HOTN)
///   --seed=N           base RNG seed
///   --threads=N        farm worker threads (default 0 = all cores;
///                      results are identical at any value)
///   --csv              emit CSV instead of an aligned table
///   --json=PATH        result file (default BENCH_<scenario>.json; "off"
///                      disables)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "desp/stats.hpp"
#include "exp/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace voodb::bench {

/// The entry point behind `voodb run <scenario>`: parses the common
/// flags plus repeatable `--set name=value` parameter overrides,
/// configures the BENCH_<scenario>.json recorder, and runs the named
/// catalog scenario.  Returns a process exit code; configuration errors
/// are reported on stderr rather than thrown.
int RunScenarioMain(const std::string& scenario_name, int argc,
                    const char* const* argv);

/// Splits repeated `--set name=value` assignments into (name, value)
/// overrides; throws util::Error on an assignment without a name.  The
/// one `--set` parser behind run, profile, explain and trace record.
std::vector<exp::ParamOverride> ParseOverrides(
    const std::vector<std::string>& sets);

/// A replicated estimate: sample mean and 95 % CI half-width.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;
};

/// One Estimate per scalar metric of a reduced result.
std::map<std::string, Estimate> EstimatesOf(
    const desp::ReplicationResult& result);

/// mean + 95 % half-width of a tally (0 half-width below 2 observations).
Estimate EstimateOf(const desp::Tally& tally);

/// Formats "mean ±hw".
std::string WithCi(const Estimate& e, int precision = 1);

/// Records an estimate into this run's BENCH_<scenario>.json (grouped as
/// section -> point x -> series).  No-op before RunScenarioMain or when
/// the JSON report is disabled.
void RecordEstimate(const std::string& section, const std::string& x,
                    const std::string& series, const Estimate& e);

/// Prints "== heading ==", then `table` (CSV under --csv, else aligned),
/// then the `footer` line unless it is null.
void PrintTable(const exp::ScenarioOptions& options,
                const std::string& heading, const util::TextTable& table,
                const char* footer);

}  // namespace voodb::bench

/// \file harness.hpp
/// \brief Shared machinery for the figure/table reproduction harnesses.
///
/// Every figure/table scenario of the catalog (`voodb run <scenario>`)
/// regenerates one figure or table of the paper's evaluation section
/// (§4).  The "Benchmark" series is produced by the direct-execution
/// emulators (src/emu), the "Simulation" series by the VOODB
/// discrete-event model (src/voodb); the paper's own numbers are
/// embedded for side-by-side comparison (values read off the published
/// figures are approximate and labelled as such).
///
/// Replications run on the exp/ replication farm: all worker threads by
/// default, bit-identical results at any thread count.  Unless disabled,
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
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "desp/stats.hpp"
#include "exp/farm.hpp"
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

/// Runs `model` on the replication farm (options.threads workers, seeds
/// derived from `base_seed`) and aggregates the returned scalar.
Estimate Replicate(const exp::ScenarioOptions& options, uint64_t base_seed,
                   const std::function<double(uint64_t seed)>& model);

/// Multi-metric variant: the model observes any number of named metrics
/// (and farm-merged LogHistograms via `sink.ObserveHistogram`) into the
/// sink; returns the reduced ReplicationResult (`EstimatesOf` gives one
/// Estimate per metric).  The reduction runs in replication order, so
/// scalars *and* histograms are bit-identical at any thread count.
desp::ReplicationResult ReplicateResult(
    const exp::ScenarioOptions& options, uint64_t base_seed,
    const exp::ReplicationFarm::Model& model);

/// One Estimate per scalar metric of a reduced result.
std::map<std::string, Estimate> EstimatesOf(
    const desp::ReplicationResult& result);

/// mean + 95 % half-width of a tally (0 half-width below 2 observations).
Estimate EstimateOf(const desp::Tally& tally);

/// Formats "mean ±hw".
std::string WithCi(const Estimate& e, int precision = 1);

/// Records an estimate into this run's BENCH_<scenario>.json (grouped as
/// section -> point x -> series).  No-op before RunScenarioMain or when
/// the JSON report is disabled.  FigureReport records its points itself;
/// hand-rolled tables call this directly.
void RecordEstimate(const std::string& section, const std::string& x,
                    const std::string& series, const Estimate& e);

/// Prints "== heading ==", then `table` (CSV under --csv, else aligned),
/// then the `footer` line unless it is null.
void PrintTable(const exp::ScenarioOptions& options,
                const std::string& heading, const util::TextTable& table,
                const char* footer);

/// Prints the standard five-column comparison row layout used by the
/// figure harnesses and renders the table.
class FigureReport {
 public:
  /// \param x_label the sweep axis ("Instances", "Cache (MB)", ...)
  FigureReport(std::string title, std::string x_label);

  void AddPoint(const std::string& x, const Estimate& bench,
                const Estimate& sim, double paper_bench, double paper_sim);

  /// Renders to stdout (aligned text or CSV per options).
  void Print(const exp::ScenarioOptions& options) const;

 private:
  std::string title_;
  util::TextTable table_;
};

/// Tail-latency table: one row per point with the end-to-end p50 / p95 /
/// p99 / p999 (and max) of a farm-merged LogHistogram.  Every row's
/// percentiles are also recorded into BENCH_<name>.json under `title` as
/// series p50/p95/p99/p999/max, so the latency trajectory is tracked
/// alongside the mean-I/O one.  Percentiles come from the merged
/// distribution (bucket-exact reduction), not from averaging
/// per-replication percentiles — and are therefore bit-identical at any
/// farm thread count.
class LatencyReport {
 public:
  LatencyReport(std::string title, std::string x_label);

  void AddPoint(const std::string& x, const desp::LogHistogram& histogram);

  /// Renders to stdout (aligned text or CSV per options).
  void Print(const exp::ScenarioOptions& options) const;

 private:
  std::string title_;
  util::TextTable table_;
};

}  // namespace voodb::bench

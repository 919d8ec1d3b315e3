/// \file scenario.hpp
/// \brief Named, declarative experiment scenarios.
///
/// Darmont's benchmark-methodology line of work insists that an
/// experiment's value is its parameterization surface: every figure,
/// table and ablation is just the generic model steered by a different
/// parameter set.  A `Scenario` captures one such experiment as a value —
/// name, description, base `ExperimentConfig`, table cells and a run
/// hook — and the `ScenarioRegistry` makes the whole catalog addressable
/// by name from one driver (`voodb list | describe | run`).
///
/// `ResolveScenario` resolves `--set key=value` overrides through the
/// parameter registry, so *every* `VoodbConfig` / `OcbParameters` field
/// can be overridden per run without a bespoke flag.  `voodb run` and the
/// tools (`profile`, `explain`, `trace record`) share it, so a tool
/// accepts exactly the overrides a run accepts.
///
/// A scenario may also declare its table cells: each cell is one fully
/// resolved configuration, optionally with a direct-execution emulator
/// leg and the DSTC clustering phase protocol.  `RunCells` farms (cell x
/// replication) on one pool — it is the one way to run a replicated
/// VOODB experiment, for scenarios, examples and tests alike; the tools
/// run replication 0 of one cell (`FindCell`) through the same phase
/// driver (`RunCellPhases`), so a tool instruments exactly the run that
/// produced a table row.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desp/replication.hpp"
#include "voodb/experiment.hpp"
#include "voodb/metrics.hpp"
#include "voodb/system.hpp"

namespace voodb::exp {

/// Per-invocation knobs of the experiment protocol (how long / how wide
/// to run), as opposed to model parameters (which live in the scenario's
/// `ExperimentConfig` and are overridden via `--set`).  `RunCells` reads
/// `replications`, `seed` and `threads`; a cell carries its own
/// transaction count.
struct ScenarioOptions {
  uint64_t replications = 10;   ///< the paper used 100
  uint64_t transactions = 1000; ///< measured transactions per replication
  uint64_t seed = 42;           ///< base RNG seed
  size_t threads = 0;           ///< farm workers; 0 = all hardware threads
  bool csv = false;             ///< CSV instead of aligned tables
};

struct Scenario;

/// What a scenario run hands back: a flat "section/x/series/stat" ->
/// value map mirroring the BENCH_<name>.json structure, so callers (the
/// driver, parity tests) can compare runs without scraping stdout.
using ScenarioResult = std::map<std::string, double>;

/// A `--set` style override, e.g. {"buffer_pages", "2048"} or
/// {"system_class", "page_server"}.
using ParamOverride = std::pair<std::string, std::string>;

/// The resolved inputs a scenario runs with.
struct ScenarioContext {
  const Scenario* scenario = nullptr;
  /// Scenario base config after `--set` overrides.
  core::ExperimentConfig config;
  ScenarioOptions options;
  /// The raw overrides, already applied to `config`.  Run hooks that
  /// build additional configs beyond `config` (e.g. a preset per table
  /// row) re-apply these so `--set` reaches every leg of the scenario.
  std::vector<ParamOverride> overrides;
};

using ScenarioRunner = std::function<ScenarioResult(const ScenarioContext&)>;

/// The direct-execution emulator a cell runs beside its simulation (the
/// "Benchmark(emu)" series of the validation figures and DSTC tables).
enum class EmulatorKind { kNone, kO2, kTexas };

/// One table cell of a scenario: a fully resolved configuration (`--set`
/// already applied) and its per-replication transaction count.
struct Cell {
  std::string label;  ///< table row key, e.g. "64/wait_die"; `--cell=`
  /// The simulated system and workload; `make_policy` is the CLUSTP
  /// module (none when empty).  The workload's `cold_transactions`
  /// (COLDN) run unmeasured before the first reported phase.
  core::ExperimentConfig config;
  /// Measured transactions per replication (per usage phase of a phased
  /// cell).
  uint64_t transactions = 0;
  /// Optional emulator leg: the O2 emulator with an `emulator_mb` cache
  /// or the Texas emulator on an `emulator_mb` host, over the same object
  /// base as the simulation.
  EmulatorKind emulator = EmulatorKind::kNone;
  double emulator_mb = 0.0;
  /// The DSTC phase protocol (§4.4) instead of one mixed-workload phase:
  /// hierarchy-traversal usage, trigger clustering, drop the buffer,
  /// usage again.  The emulator leg, if any, must be Texas.
  bool clustering_phases = false;
};

/// One cell replication's simulation phases (`RunCellPhases`).
struct CellPhases {
  core::PhaseMetrics pre;              ///< phased cells: usage before
  core::ClusteringMetrics clustering;  ///< phased cells: the trigger
  /// The cell's reported phase: its transactions, or the post-clustering
  /// usage of a phased cell.
  core::PhaseMetrics measured;
};

/// One cell's replicated result.  A cell replication builds a VoodbSystem
/// from the cell's config (with its CLUSTP module), runs its phases
/// (`RunCellPhases`) and observes, on the reported phase, "total_ios",
/// "hit_rate", "network_mb", "mean_response_ms", "disk_util", "faults",
/// "sim_s", "crashes", "recovery_s", "throughput_tps", "abort_rate",
/// "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms", "restarts",
/// "lock_wait_p99_ms", "io_p99_ms" and "retry_ms".  A phased cell adds
/// "pre_ios", "overhead_ios", "post_ios", "gain", "clusters",
/// "cluster_size" and the pre-clustering phase's "pre_p50_ms" ..
/// "pre_max_ms".  An emulator leg adds "emu_total_ios", or for a phased
/// cell "emu_pre_ios" .. "emu_cluster_size".  Percentiles are estimated
/// once per replication, so each gets a Student-t CI like every scalar.
struct CellResult {
  Cell cell;
  desp::ReplicationResult result;
};

/// One named experiment: a paper figure/table, an ablation, or any
/// user-defined parameter study.
struct Scenario {
  std::string name;         ///< catalog key ("fig08", "ablation_sysclass")
  std::string title;        ///< one-line heading for `voodb list`
  std::string description;  ///< paragraph for `voodb describe`
  /// Defaults for every model parameter; `--set` overrides resolve into
  /// a copy of this through the parameter registry.
  core::ExperimentConfig base;
  /// Registry parameters the run hook itself varies (its compared /
  /// swept knobs, e.g. `system_class` for the SYSCLASS ablation, or
  /// `buffer_pages` for a memory sweep).  `--set` of one of these is
  /// rejected up-front instead of being silently overwritten.
  std::vector<std::string> swept;
  /// False for scenarios that run only the direct-execution emulator:
  /// system-domain `--set` overrides would be silently ignored, so they
  /// are rejected (workload overrides still apply).
  bool system_config_used = true;
  /// Optional: the scenario's table cells, from its resolved context.  A
  /// scenario that declares them reduces `RunCells` of them into its
  /// table in `run`, and the tools select one with `--cell=<label>`.
  std::function<std::vector<Cell>(const ScenarioContext&)> cells;
  ScenarioRunner run;
};

/// Name -> Scenario catalog.  Registration order is preserved (the paper
/// figures read in order); lookups by name throw with a nearest-name
/// suggestion.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& Instance();

  /// Registers a scenario; throws voodb::util::Error on a duplicate or
  /// empty name or a missing run hook.
  void Register(Scenario scenario);

  bool Contains(const std::string& name) const;
  const Scenario* Find(const std::string& name) const;
  /// Throws voodb::util::Error with a nearest-name suggestion.
  const Scenario& At(const std::string& name) const;
  /// Scenario names in registration order.
  std::vector<std::string> Names() const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

 private:
  std::vector<Scenario> scenarios_;
  std::map<std::string, size_t> index_;
};

/// Resolves the inputs `scenario` runs with: copies its base config,
/// applies `overrides` through the parameter registry (values may be enum
/// names; parameters the scenario sweeps itself, and system parameters of
/// an emulator-only scenario, are rejected) and validates.
ScenarioContext ResolveScenario(const Scenario& scenario,
                                const ScenarioOptions& options,
                                const std::vector<ParamOverride>& overrides);

/// Resolves `scenario` and invokes its run hook.
ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options,
                           const std::vector<ParamOverride>& overrides = {});

/// The cell labelled `label`.  For a scenario without cells, `label` must
/// be empty and the cell is the resolved base config at
/// `ctx.options.transactions`.  A missing or unknown label on a
/// cell-declaring scenario throws, listing the labels and suggesting the
/// nearest one.
Cell FindCell(const ScenarioContext& ctx, const std::string& label);

/// The cell's CLUSTP module for one system (nullptr: none).
std::unique_ptr<cluster::ClusteringPolicy> MakeClusteringPolicy(
    const Cell& cell);

/// Runs replication `seed` of `cell`'s simulation phases on `sys` (built
/// from the cell's config and CLUSTP module): first its workload's
/// `cold_transactions` unmeasured, then its transactions or the
/// clustering phase protocol, all drawn from one `ocb::WorkloadGenerator`
/// over the system's object base seeded `RandomStream(seed).Derive(1)`.
/// `RunCells` and the tools share it, so a tool runs the phases a table
/// reports.
CellPhases RunCellPhases(const Cell& cell, core::VoodbSystem& sys,
                         uint64_t seed);

/// Runs `options.replications` replications of every cell on one pool
/// (`RunGrid` over the cell index, `options.threads` workers), with the
/// seed chain of `options.seed`: replication i's emulator leg draws its
/// workload from `RandomStream(seed_i)`, its simulation from
/// `RandomStream(seed_i).Derive(1)`.  Cells with equal workload
/// parameters share one object base.  Results are in cell order and
/// bit-identical at any thread count.  A scenario's run hook passes
/// `ctx.scenario->cells(ctx)` and `ctx.options`.
std::vector<CellResult> RunCells(std::vector<Cell> cells,
                                 const ScenarioOptions& options);

}  // namespace voodb::exp

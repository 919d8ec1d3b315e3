#include "exp/scenario.hpp"

#include <algorithm>
#include <memory>

#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "emu/texas_emulator.hpp"
#include "exp/farm.hpp"
#include "ocb/workload.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/system.hpp"

namespace voodb::exp {

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::Register(Scenario scenario) {
  VOODB_CHECK_MSG(!scenario.name.empty(), "scenario needs a name");
  VOODB_CHECK_MSG(static_cast<bool>(scenario.run),
                  "scenario '" << scenario.name << "' needs a run hook");
  VOODB_CHECK_MSG(index_.count(scenario.name) == 0,
                  "duplicate scenario '" << scenario.name << "'");
  index_.emplace(scenario.name, scenarios_.size());
  scenarios_.push_back(std::move(scenario));
}

bool ScenarioRegistry::Contains(const std::string& name) const {
  return index_.count(name) != 0;
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &scenarios_[it->second];
}

const Scenario& ScenarioRegistry::At(const std::string& name) const {
  const Scenario* scenario = Find(name);
  if (scenario == nullptr) {
    const std::string nearest = util::NearestMatch(name, Names());
    VOODB_CHECK_MSG(false, "unknown scenario '"
                               << name << "'"
                               << (nearest.empty()
                                       ? ""
                                       : " (did you mean '" + nearest + "'?)")
                               << "; run `voodb list` for the catalog");
  }
  return *scenario;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) names.push_back(scenario.name);
  return names;
}

ScenarioContext ResolveScenario(const Scenario& scenario,
                                const ScenarioOptions& options,
                                const std::vector<ParamOverride>& overrides) {
  ScenarioContext ctx;
  ctx.scenario = &scenario;
  ctx.config = scenario.base;
  ctx.options = options;
  const core::ParamRegistry& registry = core::ParamRegistry::Instance();
  for (const auto& [name, value] : overrides) {
    const core::ParamDescriptor& descriptor = registry.At(name);
    VOODB_CHECK_MSG(
        std::find(scenario.swept.begin(), scenario.swept.end(), name) ==
            scenario.swept.end(),
        "parameter '" << name << "' is swept by scenario '" << scenario.name
                      << "' itself; --set cannot override it");
    VOODB_CHECK_MSG(
        scenario.system_config_used ||
            descriptor.domain == core::ParamDomain::kWorkload,
        "scenario '" << scenario.name
                     << "' runs the direct-execution emulator only; system "
                        "parameter '"
                     << name << "' would be ignored");
    registry.Set(core::ParamTarget{&ctx.config.system, &ctx.config.workload},
                 name, value);
  }
  ctx.overrides = overrides;
  // Replicated runs build one system per replication — possibly
  // concurrently on the farm — and every one of them would truncate the
  // same trace_path.  Recording is a single-run affair.
  VOODB_CHECK_MSG(!ctx.config.system.trace_record || options.replications <= 1,
                  "parameter 'trace_record' conflicts with --replications="
                      << options.replications
                      << ": every replication records into the same "
                         "trace_path; record a single fixed-seed run with "
                         "`voodb trace record`");
  VOODB_CHECK_MSG(
      ctx.config.system.profile_path.empty() || options.replications <= 1,
      "parameter 'profile_path' conflicts with --replications="
          << options.replications
          << ": every replication writes the same Chrome-trace file; "
             "profile a single fixed-seed run with `voodb profile`");
  ctx.config.system.Validate();
  ctx.config.workload.Validate();
  return ctx;
}

ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options,
                           const std::vector<ParamOverride>& overrides) {
  VOODB_CHECK_MSG(static_cast<bool>(scenario.run),
                  "scenario '" << scenario.name << "' has no run hook");
  return scenario.run(ResolveScenario(scenario, options, overrides));
}

Cell FindCell(const ScenarioContext& ctx, const std::string& label) {
  const Scenario& scenario = *ctx.scenario;
  if (!scenario.cells) {
    VOODB_CHECK_MSG(label.empty(), "scenario '" << scenario.name
                                                << "' declares no cells; "
                                                   "drop --cell");
    return Cell{"", ctx.config, ctx.options.transactions};
  }
  std::vector<std::string> labels;
  std::string listing;
  for (Cell& cell : scenario.cells(ctx)) {
    if (cell.label == label) return std::move(cell);
    labels.push_back(cell.label);
    listing += " " + cell.label;
  }
  VOODB_CHECK_MSG(!label.empty(), "scenario '"
                                      << scenario.name
                                      << "' reports table cells; pick one "
                                         "with --cell=<label>:"
                                      << listing);
  const std::string nearest = util::NearestMatch(label, labels);
  VOODB_CHECK_MSG(false, "unknown cell '"
                             << label << "' of scenario '" << scenario.name
                             << "'"
                             << (nearest.empty()
                                     ? ""
                                     : " (did you mean '" + nearest + "'?)")
                             << "; cells:" << listing);
  return {};
}

std::unique_ptr<cluster::ClusteringPolicy> MakeClusteringPolicy(
    const Cell& cell) {
  return cell.config.make_policy ? cell.config.make_policy() : nullptr;
}

namespace {

/// The usage phases of the clustering protocol: "very characteristic
/// transactions (namely, depth-3 hierarchy traversals)" (§4.4).
constexpr ocb::TransactionKind kUsage =
    ocb::TransactionKind::kHierarchyTraversal;

}  // namespace

CellPhases RunCellPhases(const Cell& cell, core::VoodbSystem& sys,
                         uint64_t seed) {
  ocb::WorkloadGenerator workload(&sys.object_manager().base(),
                                  desp::RandomStream(seed).Derive(1));
  // COLDN: warm the system up, unmeasured, from the same stream.
  const uint32_t cold = cell.config.workload.cold_transactions;
  if (cold > 0) sys.RunTransactions(workload, cold);
  CellPhases phases;
  if (!cell.clustering_phases) {
    phases.measured = sys.RunTransactions(workload, cell.transactions);
    return phases;
  }
  phases.pre = sys.RunTransactionsOfKind(workload, kUsage, cell.transactions);
  phases.clustering = sys.TriggerClustering();
  sys.DropBuffer();
  phases.measured =
      sys.RunTransactionsOfKind(workload, kUsage, cell.transactions);
  return phases;
}

namespace {

/// The end-to-end latency series of one phase: "<prefix>p50_ms" ..
/// "<prefix>max_ms".
void ObserveLatency(const core::PhaseMetrics& m, const std::string& prefix,
                    desp::MetricSink& sink) {
  const std::pair<const char*, double> observations[] = {
      {"p50_ms", m.ResponseQuantileMs(0.50)},
      {"p95_ms", m.ResponseQuantileMs(0.95)},
      {"p99_ms", m.ResponseQuantileMs(0.99)},
      {"p999_ms", m.ResponseQuantileMs(0.999)},
      {"max_ms", m.max_response_ms},
  };
  for (const auto& [name, value] : observations) {
    sink.Observe(prefix + name, value);
  }
}

/// The clustering protocol's series: "<prefix>pre_ios" ..
/// "<prefix>cluster_size".
void ObserveClustering(uint64_t pre_ios, uint64_t overhead_ios,
                       uint64_t post_ios, uint64_t clusters,
                       double cluster_size, const std::string& prefix,
                       desp::MetricSink& sink) {
  const double pre = static_cast<double>(pre_ios);
  const double post = static_cast<double>(post_ios);
  const std::pair<const char*, double> observations[] = {
      {"pre_ios", pre},
      {"overhead_ios", static_cast<double>(overhead_ios)},
      {"post_ios", post},
      {"gain", post > 0.0 ? pre / post : 0.0},
      {"clusters", static_cast<double>(clusters)},
      {"cluster_size", cluster_size},
  };
  for (const auto& [name, value] : observations) {
    sink.Observe(prefix + name, value);
  }
}

void ObserveCell(const CellPhases& phases, bool clustering_phases,
                 core::VoodbSystem& sys, desp::MetricSink& sink) {
  const core::PhaseMetrics& m = phases.measured;
  const double restarts = static_cast<double>(m.transaction_restarts);
  const double attempts = static_cast<double>(m.transactions) + restarts;
  const core::FailureInjectorActor* injector = sys.failure_injector();
  // Critical-path attribution (where the p99 went: lock waits vs disk vs
  // abort/redo work) comes from the span tracer's component histograms.
  const obs::ComponentHistograms& comp = m.component_histograms;
  const std::pair<const char*, double> observations[] = {
      {"total_ios", static_cast<double>(m.total_ios)},
      {"hit_rate", m.HitRate()},
      {"network_mb", static_cast<double>(m.network_bytes) / (1024.0 * 1024.0)},
      {"mean_response_ms", m.mean_response_ms},
      {"disk_util", sys.io_subsystem().DiskUtilization()},
      {"faults", static_cast<double>(sys.io_subsystem().transient_faults())},
      {"sim_s", m.sim_time_ms / 1000.0},
      {"crashes",
       injector ? static_cast<double>(injector->stats().crashes) : 0.0},
      {"recovery_s",
       injector ? injector->stats().total_recovery_ms / 1000.0 : 0.0},
      {"throughput_tps", m.ThroughputTps()},
      {"abort_rate", attempts == 0.0 ? 0.0 : restarts / attempts},
      {"restarts", restarts},
      {"lock_wait_p99_ms", comp.lock_wait.Quantile(0.99)},
      {"io_p99_ms", comp.io.Quantile(0.99)},
      {"retry_ms", comp.retry.mean()},
  };
  for (const auto& [name, value] : observations) sink.Observe(name, value);
  ObserveLatency(m, "", sink);
  if (clustering_phases) {
    ObserveLatency(phases.pre, "pre_", sink);
    ObserveClustering(phases.pre.total_ios, phases.clustering.overhead_ios,
                      m.total_ios, phases.clustering.num_clusters,
                      phases.clustering.mean_cluster_size, "", sink);
  }
}

/// The cell's emulator leg for one replication: the emulator over `base`
/// with `seed`, its workload drawn from `RandomStream(seed)`.
void ObserveEmulator(const Cell& cell, const ocb::ObjectBase& base,
                     uint64_t seed, desp::MetricSink& sink) {
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
  // COLDN warms the emulator up as `RunCellPhases` warms the simulation.
  const uint32_t cold = cell.config.workload.cold_transactions;
  if (cell.emulator == EmulatorKind::kO2) {
    emu::O2Config cfg;
    cfg.cache_pages =
        static_cast<uint64_t>(cell.emulator_mb * 1024 * 1024 / cfg.page_size);
    emu::O2Emulator o2(cfg, &base, seed);
    if (cold > 0) o2.RunTransactions(gen, cold);
    sink.Observe("emu_total_ios", static_cast<double>(
                                      o2.RunTransactions(gen, cell.transactions)
                                          .total_ios));
    return;
  }
  emu::TexasConfig cfg;
  cfg.memory_pages =
      emu::TexasConfig::FramesForMemory(cell.emulator_mb, cfg.page_size);
  emu::TexasEmulator texas(cfg, &base, seed);
  // The clustering module observes from the first transaction, as the
  // simulation's does.
  if (cell.clustering_phases) {
    texas.SetClusteringPolicy(MakeClusteringPolicy(cell));
  }
  if (cold > 0) texas.RunTransactions(gen, cold);
  if (!cell.clustering_phases) {
    sink.Observe("emu_total_ios",
                 static_cast<double>(
                     texas.RunTransactions(gen, cell.transactions).total_ios));
    return;
  }
  const uint64_t pre_ios =
      texas.RunTransactionsOfKind(gen, kUsage, cell.transactions).total_ios;
  const emu::TexasClusteringMetrics cm = texas.PerformClustering();
  texas.DropMemory();
  const uint64_t post_ios =
      texas.RunTransactionsOfKind(gen, kUsage, cell.transactions).total_ios;
  ObserveClustering(pre_ios, cm.overhead_ios, post_ios, cm.num_clusters,
                    cm.mean_cluster_size, "emu_", sink);
}

/// One object base per entry of `workloads`, generated serially in order;
/// entries with equal workload parameters share one base.
std::vector<std::shared_ptr<const ocb::ObjectBase>> GenerateBases(
    const std::vector<ocb::OcbParameters>& workloads) {
  const core::ParamRegistry& registry = core::ParamRegistry::Instance();
  // Equal workloads generate equal bases: every workload parameter (the
  // registry covers every OcbParameters field, all numeric) matches.
  auto same = [&registry](const ocb::OcbParameters& a,
                          const ocb::OcbParameters& b) {
    for (const core::ParamDescriptor& d : registry.descriptors()) {
      if (d.domain == core::ParamDomain::kWorkload &&
          d.getter(core::ConstParamTarget{nullptr, &a}) !=
              d.getter(core::ConstParamTarget{nullptr, &b})) {
        return false;
      }
    }
    return true;
  };
  std::vector<std::shared_ptr<const ocb::ObjectBase>> bases;
  bases.reserve(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    size_t j = 0;
    while (j < i && !same(workloads[j], workloads[i])) ++j;
    bases.push_back(j < i ? bases[j]
                          : std::make_shared<const ocb::ObjectBase>(
                                ocb::ObjectBase::Generate(workloads[i])));
  }
  return bases;
}

}  // namespace

std::vector<CellResult> RunCells(std::vector<Cell> cells,
                                 const ScenarioOptions& options) {
  if (cells.empty()) return {};  // e.g. a --set cap below every cell
  std::vector<ocb::OcbParameters> workloads;
  for (const Cell& cell : cells) {
    VOODB_CHECK_MSG(!cell.clustering_phases ||
                        cell.emulator != EmulatorKind::kO2,
                    "cell '" << cell.label
                             << "': the clustering phases need the Texas "
                                "emulator (O2 has no clustering module)");
    workloads.push_back(cell.config.workload);
  }
  const auto bases = GenerateBases(workloads);
  FarmOptions farm;
  farm.threads = options.threads;
  farm.base_seed = options.seed;
  std::vector<desp::ReplicationResult> replicated = RunGrid(
      cells.size(),
      [&](size_t c) -> Model {
        const Cell& cell = cells[c];
        const ocb::ObjectBase* base = bases[c].get();
        return [&cell, base](uint64_t seed, desp::MetricSink& sink) {
          if (cell.emulator != EmulatorKind::kNone) {
            ObserveEmulator(cell, *base, seed, sink);
          }
          core::VoodbSystem sys(cell.config.system, base,
                                MakeClusteringPolicy(cell), seed);
          ObserveCell(RunCellPhases(cell, sys, seed), cell.clustering_phases,
                      sys, sink);
        };
      },
      options.replications, farm);
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    results.push_back({std::move(cells[i]), std::move(replicated[i])});
  }
  return results;
}

}  // namespace voodb::exp

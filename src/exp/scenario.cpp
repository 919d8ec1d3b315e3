#include "exp/scenario.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "voodb/param_registry.hpp"

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

ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options,
                           const std::vector<ParamOverride>& overrides) {
  VOODB_CHECK_MSG(static_cast<bool>(scenario.run),
                  "scenario '" << scenario.name << "' has no run hook");
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
  ctx.config.replications = options.replications;
  ctx.config.base_seed = options.seed;
  ctx.config.threads = options.threads;
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
  return scenario.run(ctx);
}

}  // namespace voodb::exp

#include "profile_tool.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "desp/random.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "ocb/workload.hpp"
#include "scenarios.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

namespace {

void ProfileUsage(std::ostream& os) {
  os << "usage:\n"
        "  voodb profile <scenario> [--transactions=N] [--seed=N]\n"
        "                [--set name=value ...] [--trace=PATH] "
        "[--metrics=PATH]\n\n"
        "Runs one fixed-seed simulation of the scenario's base "
        "configuration with\nthe observability layer attached: prints the "
        "per-actor simulated-time\nbreakdown and response-time "
        "percentiles, writes a chrome://tracing\ntimeline and the metric "
        "snapshot as JSON (\"off\" disables either file).\n";
}

int Profile(const std::string& scenario_name, int argc,
            const char* const* argv) {
  const exp::Scenario& scenario =
      exp::ScenarioRegistry::Instance().At(scenario_name);
  util::CliArgs args(argc, argv);
  const auto transactions = static_cast<uint64_t>(
      args.GetInt("transactions", 1000, "transactions to profile"));
  const auto seed =
      static_cast<uint64_t>(args.GetInt("seed", 42, "RNG seed"));
  const std::vector<std::string> sets = args.GetList(
      "set", "override a model parameter (name=value, repeatable)");
  const std::string trace_path = args.GetString(
      "trace", "PROFILE_" + scenario_name + ".trace.json",
      "Chrome-trace output (chrome://tracing); \"off\" disables; an "
      "explicit --set profile_path wins when --trace is not given");
  const std::string metrics_path = args.GetString(
      "metrics", "PROFILE_" + scenario_name + ".metrics.json",
      "metric-snapshot JSON output; \"off\" disables");
  if (args.help_requested()) {
    std::cout << scenario.title << "\n\n";
    ProfileUsage(std::cout);
    std::cout << "\n" << args.Help();
    return 0;
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(scenario.system_config_used,
                  "scenario '" << scenario_name
                               << "' runs the direct-execution emulator "
                                  "only; the profiler needs the VOODB "
                                  "simulation (pick a sim scenario from "
                                  "`voodb list`)");

  core::ExperimentConfig config = scenario.base;
  const core::ParamRegistry& registry = core::ParamRegistry::Instance();
  for (const auto& [name, value] : ParseOverrides(sets)) {
    registry.Set(core::ParamTarget{&config.system, &config.workload}, name,
                 value);
  }
  config.system.observe = true;
  // Compose with `--set profile_path=...` (and any scenario base value):
  // the --trace flag only overrides when explicitly given, and "off"
  // disables the timeline regardless of where the path came from.
  if (trace_path == "off" || trace_path == "none") {
    config.system.profile_path.clear();
  } else if (args.Provided("trace") || config.system.profile_path.empty()) {
    config.system.profile_path = trace_path;
  }
  config.system.Validate();
  config.workload.Validate();

  const ocb::ObjectBase base = ocb::ObjectBase::Generate(config.workload);
  core::VoodbSystem sys(config.system, &base, nullptr, seed);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed).Derive(1));
  const core::PhaseMetrics metrics = sys.RunTransactions(gen, transactions);

  std::cout << "profiled " << transactions << " transactions of '"
            << scenario_name << "' (seed " << seed << "): "
            << util::FormatDouble(metrics.sim_time_ms, 1)
            << " ms simulated, " << sys.scheduler().ExecutedEvents()
            << " events\n\n";
  std::cout << "== simulated time by actor ==\n";
  sys.profiler()->Table().Print(std::cout);

  util::TextTable latency({"Metric", "p50", "p95", "p99", "p999", "Max"});
  latency.AddRow(
      {"response (ms)",
       util::FormatDouble(metrics.ResponseQuantileMs(0.50), 2),
       util::FormatDouble(metrics.ResponseQuantileMs(0.95), 2),
       util::FormatDouble(metrics.ResponseQuantileMs(0.99), 2),
       util::FormatDouble(metrics.ResponseQuantileMs(0.999), 2),
       util::FormatDouble(metrics.max_response_ms, 2)});
  std::cout << "\n== end-to-end latency ==\n";
  latency.Print(std::cout);

  if (!(metrics_path == "off" || metrics_path == "none")) {
    exp::WriteFile(metrics_path, sys.metric_registry().Snapshot().ToJson());
    std::cout << "\nwrote metric snapshot to " << metrics_path << "\n";
  }
  sys.FinishProfile();
  if (!config.system.profile_path.empty()) {
    std::cout << "wrote Chrome trace to " << config.system.profile_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}

}  // namespace

int RunProfileCommand(int argc, const char* const* argv) {
  if (argc < 2) {
    ProfileUsage(std::cerr);
    return 2;
  }
  const std::string scenario = argv[1];
  if (scenario == "--help" || scenario == "-h" || scenario == "help") {
    ProfileUsage(std::cout);
    return 0;
  }
  if (scenario.rfind("--", 0) == 0) {
    std::cerr << "error: `voodb profile` needs a scenario name before "
                 "flags (see `voodb list`)\n";
    return 2;
  }
  try {
    return Profile(scenario, argc - 1, argv + 1);
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace voodb::bench

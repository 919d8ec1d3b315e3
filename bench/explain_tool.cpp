#include "explain_tool.hpp"

#include <iostream>
#include <string>
#include <vector>

#include "desp/random.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "obs/spans.hpp"
#include "ocb/workload.hpp"
#include "scenarios.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

namespace {

void ExplainUsage(std::ostream& os) {
  os << "usage:\n"
        "  voodb explain <scenario> [--top=K] [--transactions=N] "
        "[--seed=N]\n"
        "                [--set name=value ...] [--trace=PATH]\n\n"
        "Runs one fixed-seed simulation with causal span tracing and "
        "explains the\ntail: the critical-path decomposition of response "
        "time (lock wait, IO,\nnetwork, CPU, abort/retry), then the K "
        "slowest transactions' full span\ntrees as text breakdowns and as "
        "Perfetto/Chrome-trace JSON (\"off\"\ndisables the file).\n";
}

void AddComponentRow(util::TextTable* table, const char* name,
                     const desp::LogHistogram& h, double total_response) {
  const double share =
      total_response > 0.0 ? 100.0 * h.sum() / total_response : 0.0;
  table->AddRow({name, std::to_string(h.count()),
                 util::FormatDouble(h.mean(), 3),
                 util::FormatDouble(h.Quantile(0.50), 3),
                 util::FormatDouble(h.Quantile(0.95), 3),
                 util::FormatDouble(h.Quantile(0.99), 3),
                 util::FormatDouble(h.max(), 3),
                 util::FormatDouble(share, 1) + "%"});
}

int Explain(const std::string& scenario_name, int argc,
            const char* const* argv) {
  const exp::Scenario& scenario =
      exp::ScenarioRegistry::Instance().At(scenario_name);
  util::CliArgs args(argc, argv);
  const auto transactions = static_cast<uint64_t>(
      args.GetInt("transactions", 1000, "transactions to run"));
  const auto seed =
      static_cast<uint64_t>(args.GetInt("seed", 42, "RNG seed"));
  const auto top = static_cast<uint32_t>(
      args.GetInt("top", 8, "slowest-K exemplar span trees to retain"));
  const std::vector<std::string> sets = args.GetList(
      "set", "override a model parameter (name=value, repeatable)");
  const std::string trace_path = args.GetString(
      "trace", "EXPLAIN_" + scenario_name + ".trace.json",
      "Perfetto/Chrome-trace exemplar output; \"off\" disables");
  if (args.help_requested()) {
    std::cout << scenario.title << "\n\n";
    ExplainUsage(std::cout);
    std::cout << "\n" << args.Help();
    return 0;
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(top >= 1, "--top must be >= 1");
  VOODB_CHECK_MSG(scenario.system_config_used,
                  "scenario '" << scenario_name
                               << "' runs the direct-execution emulator "
                                  "only; span tracing needs the VOODB "
                                  "simulation (pick a sim scenario from "
                                  "`voodb list`)");

  core::ExperimentConfig config = scenario.base;
  const core::ParamRegistry& registry = core::ParamRegistry::Instance();
  for (const auto& [name, value] : ParseOverrides(sets)) {
    registry.Set(core::ParamTarget{&config.system, &config.workload}, name,
                 value);
  }
  config.system.trace_spans = true;
  config.system.trace_exemplars = top;
  config.system.Validate();
  config.workload.Validate();

  const ocb::ObjectBase base = ocb::ObjectBase::Generate(config.workload);
  core::PhaseMetrics metrics;
  std::vector<obs::Exemplar> exemplars;
  if (config.system.shards > 1) {
    core::ShardedVoodb sharded(config.system, &base, seed);
    metrics = sharded.Run(transactions);
    exemplars = sharded.MergedExemplars();
  } else {
    core::VoodbSystem sys(config.system, &base, nullptr, seed);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed).Derive(1));
    metrics = sys.RunTransactions(gen, transactions);
    exemplars = sys.span_tracer()->exemplars();
  }

  // The subsystem's contract, re-checked at the reporting boundary: each
  // exemplar's components sum to its recorded response time bit-exactly.
  for (const obs::Exemplar& e : exemplars) {
    VOODB_CHECK_MSG(e.path.Sum() == e.response_ms,
                    "critical-path components of txn " << e.global_id
                        << " sum to " << e.path.Sum() << " ms, not its "
                        << e.response_ms << " ms response");
  }

  std::cout << "explained " << metrics.transactions << " transactions of '"
            << scenario_name << "' (seed " << seed << "): "
            << util::FormatDouble(metrics.sim_time_ms, 1)
            << " ms simulated, mean response "
            << util::FormatDouble(metrics.mean_response_ms, 2) << " ms, p99 "
            << util::FormatDouble(metrics.ResponseQuantileMs(0.99), 2)
            << " ms\n\n";

  const obs::ComponentHistograms& c = metrics.component_histograms;
  const double total_response = c.lock_wait.sum() + c.io.sum() +
                                c.net.sum() + c.cpu.sum() + c.retry.sum() +
                                c.other.sum();
  util::TextTable components({"Component", "Count", "Mean", "p50", "p95",
                              "p99", "Max", "Share"});
  AddComponentRow(&components, "lock_wait (ms)", c.lock_wait, total_response);
  AddComponentRow(&components, "io (ms)", c.io, total_response);
  AddComponentRow(&components, "net (ms)", c.net, total_response);
  AddComponentRow(&components, "cpu (ms)", c.cpu, total_response);
  AddComponentRow(&components, "retry (ms)", c.retry, total_response);
  AddComponentRow(&components, "other (ms)", c.other, total_response);
  std::cout << "== response time by critical-path component ==\n";
  components.Print(std::cout);

  std::cout << "\n== " << exemplars.size()
            << " slowest transactions (span trees) ==\n";
  for (const obs::Exemplar& e : exemplars) {
    std::cout << "\n";
    obs::SpanTracer::WriteBreakdown(std::cout, e);
  }

  if (!(trace_path == "off" || trace_path == "none")) {
    exp::WriteFile(trace_path, obs::SpanTracer::PerfettoJson(exemplars));
    std::cout << "\nwrote exemplar Perfetto trace to " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}

}  // namespace

int RunExplainCommand(int argc, const char* const* argv) {
  if (argc < 2) {
    ExplainUsage(std::cerr);
    return 2;
  }
  const std::string scenario = argv[1];
  if (scenario == "--help" || scenario == "-h" || scenario == "help") {
    ExplainUsage(std::cout);
    return 0;
  }
  if (scenario.rfind("--", 0) == 0) {
    std::cerr << "error: `voodb explain` needs a scenario name before "
                 "flags (see `voodb list`)\n";
    return 2;
  }
  try {
    return Explain(scenario, argc - 1, argv + 1);
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace voodb::bench

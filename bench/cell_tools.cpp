#include "cell_tools.hpp"

#include <functional>
#include <iostream>

#include "exp/farm.hpp"
#include "exp/report.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/spans.hpp"
#include "ocb/object_base.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

CellRun ResolveCellRun(const exp::Scenario& scenario, const std::string& cell,
                       uint64_t transactions, uint64_t seed,
                       const std::vector<exp::ParamOverride>& overrides) {
  exp::ScenarioOptions options;
  options.replications = 1;
  options.transactions = transactions;
  options.seed = seed;
  options.threads = 1;
  const exp::ScenarioContext ctx =
      exp::ResolveScenario(scenario, options, overrides);
  return {scenario.name, exp::FindCell(ctx, cell),
          exp::DeriveSeeds(seed, 1)[0]};
}

namespace {

/// A tool's report over a resolved run.
using CellReport = std::function<void(const CellRun&)>;

/// Reads a tool's own flags from `args` and returns its report.
using CellToolFlags =
    std::function<CellReport(util::CliArgs& args, const std::string& scenario)>;

/// The front end of `voodb <tool> <scenario> [flags]`: prints `usage`,
/// parses the common flags (--cell, --transactions, --seed, --set) plus
/// the tool's own (`flags` reads them and returns the report), resolves
/// the run and hands it to the report.
int RunCellTool(const char* tool, const char* usage,
                const CellToolFlags& flags, int argc,
                const char* const* argv) {
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string scenario_name = argv[1];
  if (scenario_name == "--help" || scenario_name == "-h" ||
      scenario_name == "help") {
    std::cout << usage;
    return 0;
  }
  if (scenario_name.rfind("--", 0) == 0) {
    std::cerr << "error: `voodb " << tool
              << "` needs a scenario name before flags (see `voodb list`)\n";
    return 2;
  }
  try {
    const exp::Scenario& scenario =
        exp::ScenarioRegistry::Instance().At(scenario_name);
    util::CliArgs args(argc - 1, argv + 1);
    const std::string cell = args.GetString(
        "cell", "",
        "table cell to run (labels: `voodb describe <scenario>`); required "
        "when the scenario declares cells");
    const auto transactions = static_cast<uint64_t>(args.GetInt(
        "transactions", 1000,
        "transactions per replication, as in `voodb run`"));
    const auto seed = static_cast<uint64_t>(args.GetInt(
        "seed", 42,
        "base RNG seed, as in `voodb run`; the run is its replication 0"));
    const std::vector<std::string> sets = args.GetList(
        "set", "override a model parameter (name=value, repeatable)");
    const CellReport report = flags(args, scenario_name);
    if (args.help_requested()) {
      std::cout << scenario.title << "\n\n" << usage << "\n" << args.Help();
      return 0;
    }
    args.RejectUnknown();
    VOODB_CHECK_MSG(scenario.system_config_used,
                    "scenario '" << scenario_name
                                 << "' runs the direct-execution emulator "
                                    "only; `voodb "
                                 << tool
                                 << "` needs the VOODB simulation (pick a "
                                    "sim scenario from `voodb list`)");
    report(ResolveCellRun(scenario, cell, transactions, seed,
                          ParseOverrides(sets)));
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

bool Off(const std::string& path) { return path == "off" || path == "none"; }

/// "cell <label> " plus the reported phase of a phased cell; empty for a
/// scenario's base config.
std::string CellNote(const exp::Cell& cell) {
  if (cell.label.empty()) return "";
  return "cell " + cell.label +
         (cell.clustering_phases ? " (post-clustering phase) " : " ");
}

constexpr char kProfileUsage[] =
    "usage:\n"
    "  voodb profile <scenario> [--cell=LABEL] [--transactions=N] "
    "[--seed=N]\n"
    "                [--set name=value ...] [--trace=PATH] "
    "[--metrics=PATH]\n\n"
    "Runs replication 0 of one scenario cell (the scenario's base "
    "configuration\nwhen it declares no cells) with the observability "
    "layer attached: prints\nthe per-actor simulated-time breakdown and "
    "response-time percentiles,\nwrites a chrome://tracing timeline and "
    "the metric snapshot as JSON\n(\"off\" disables either file).\n";

constexpr char kExplainUsage[] =
    "usage:\n"
    "  voodb explain <scenario> [--cell=LABEL] [--top=K] "
    "[--transactions=N]\n"
    "                [--seed=N] [--set name=value ...] [--trace=PATH]\n\n"
    "Runs replication 0 of one scenario cell (the scenario's base "
    "configuration\nwhen it declares no cells) with causal span tracing "
    "and explains the\ntail: the critical-path decomposition of response "
    "time (lock wait, IO,\nnetwork, CPU, abort/retry), then the K "
    "slowest transactions' full span\ntrees as text breakdowns and as "
    "Perfetto/Chrome-trace JSON (\"off\"\ndisables the file).\n";

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

}  // namespace

core::PhaseMetrics ProfileCell(const CellRun& run,
                               const std::string& trace_path,
                               const std::string& metrics_path) {
  core::VoodbConfig config = run.cell.config.system;
  config.observe = true;
  config.profile_path = Off(trace_path) ? "" : trace_path;
  config.Validate();

  const ocb::ObjectBase base =
      ocb::ObjectBase::Generate(run.cell.config.workload);
  core::VoodbSystem sys(config, &base, exp::MakeClusteringPolicy(run.cell),
                        run.seed);
  const core::PhaseMetrics metrics =
      exp::RunCellPhases(run.cell, sys, run.seed).measured;

  std::cout << "profiled " << run.cell.transactions << " transactions of '"
            << run.scenario << "' "
            << CellNote(run.cell)
            << "(seed " << run.seed << "): "
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

  if (!Off(metrics_path)) {
    exp::WriteFile(metrics_path, sys.metric_registry().Snapshot().ToJson());
    std::cout << "\nwrote metric snapshot to " << metrics_path << "\n";
  }
  sys.FinishProfile();
  if (!config.profile_path.empty()) {
    std::cout << "wrote Chrome trace to " << config.profile_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return metrics;
}

core::PhaseMetrics ExplainCell(const CellRun& run, uint32_t top,
                               const std::string& trace_path) {
  VOODB_CHECK_MSG(top >= 1, "--top must be >= 1");
  core::VoodbConfig config = run.cell.config.system;
  config.trace_spans = true;
  config.trace_exemplars = top;
  config.Validate();

  const ocb::ObjectBase base =
      ocb::ObjectBase::Generate(run.cell.config.workload);
  core::PhaseMetrics metrics;
  std::vector<obs::Exemplar> exemplars;
  if (config.shards > 1) {
    VOODB_CHECK_MSG(!run.cell.clustering_phases,
                    "parameter 'shards' > 1 cannot run the clustering "
                    "phases of cell '"
                        << run.cell.label
                        << "': core::ShardedVoodb has no clustering manager");
    core::ShardedVoodb sharded(config, &base, run.seed);
    sharded.RecordTrees(true);
    metrics = sharded.Run(run.cell.transactions);
    exemplars = sharded.MergedExemplars();
  } else {
    core::VoodbSystem sys(config, &base, exp::MakeClusteringPolicy(run.cell),
                          run.seed);
    sys.span_tracer()->RecordTrees(true);
    metrics = exp::RunCellPhases(run.cell, sys, run.seed).measured;
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
            << run.scenario << "' "
            << CellNote(run.cell)
            << "(seed " << run.seed << "): "
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

  if (!Off(trace_path)) {
    exp::WriteFile(trace_path, obs::SpanTracer::PerfettoJson(exemplars));
    std::cout << "\nwrote exemplar Perfetto trace to " << trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  return metrics;
}

int RunProfileCommand(int argc, const char* const* argv) {
  return RunCellTool(
      "profile", kProfileUsage,
      [](util::CliArgs& args, const std::string& scenario) -> CellReport {
        const std::string trace_path = args.GetString(
            "trace", "PROFILE_" + scenario + ".trace.json",
            "Chrome-trace output (chrome://tracing); \"off\" disables; an "
            "explicit --set profile_path wins when --trace is not given");
        const std::string metrics_path = args.GetString(
            "metrics", "PROFILE_" + scenario + ".metrics.json",
            "metric-snapshot JSON output; \"off\" disables");
        const bool trace_given = args.Provided("trace");
        return [=](const CellRun& run) {
          // Compose with `--set profile_path=...` (and any scenario base
          // value): --trace only overrides it when explicitly given.
          const std::string& preset = run.cell.config.system.profile_path;
          ProfileCell(run, trace_given || preset.empty() ? trace_path : preset,
                      metrics_path);
        };
      },
      argc, argv);
}

int RunExplainCommand(int argc, const char* const* argv) {
  return RunCellTool(
      "explain", kExplainUsage,
      [](util::CliArgs& args, const std::string& scenario) -> CellReport {
        const auto top = static_cast<uint32_t>(
            args.GetInt("top", 8, "slowest-K exemplar span trees to retain"));
        const std::string trace_path = args.GetString(
            "trace", "EXPLAIN_" + scenario + ".trace.json",
            "Perfetto/Chrome-trace exemplar output; \"off\" disables");
        return [=](const CellRun& run) { ExplainCell(run, top, trace_path); };
      },
      argc, argv);
}

}  // namespace voodb::bench

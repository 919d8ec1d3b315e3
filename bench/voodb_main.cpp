/// \file voodb_main.cpp
/// \brief The single `voodb` driver over the scenario catalog and the
/// parameter registry.
///
///   voodb list                      scenario catalog (name + title)
///   voodb describe <scenario>       base parameters, table cells, swept
///   voodb params [--markdown|--csv] the full parameter table
///   voodb run <scenario> [flags]    run a scenario; `--set name=value`
///                                   overrides any registered parameter
///                                   (enum values by name), repeatable
///
/// `voodb run` is the one way to run a catalog scenario; it writes
/// BENCH_<scenario>.json unless --json says otherwise.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cell_tools.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "scenarios.hpp"
#include "trace_tools.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"

namespace {

using voodb::core::ConstParamTarget;
using voodb::core::ParamDescriptor;
using voodb::core::ParamRegistry;

int Usage(std::ostream& os, int code) {
  os << "VOODB scenario driver — one binary for every paper figure, "
        "table and ablation.\n\n"
        "Usage:\n"
        "  voodb list                     list the scenario catalog\n"
        "  voodb describe <scenario>      show a scenario's parameters\n"
        "  voodb params [--markdown|--csv]\n"
        "                                 print the parameter registry\n"
        "  voodb run <scenario> [--set name=value ...] [--replications=N]\n"
        "            [--transactions=N] [--seed=N] [--threads=N]\n"
        "            [--csv] [--json=PATH]\n"
        "  voodb trace record|replay|analyze [flags]\n"
        "                                 access traces: record a run\n"
        "                                 (--scenario=NAME --cell=LABEL),\n"
        "                                 replay it under any buffer, or\n"
        "                                 compute its exact LRU hit-ratio\n"
        "                                 curve in one pass\n"
        "  voodb profile <scenario> [--cell=LABEL] [--set name=value ...]\n"
        "                [flags]          profile one table cell's run:\n"
        "                                 per-actor simulated-time\n"
        "                                 breakdown, latency percentiles,\n"
        "                                 chrome://tracing timeline and\n"
        "                                 metric-snapshot JSON\n"
        "  voodb explain <scenario> [--cell=LABEL] [--top K]\n"
        "                [--set name=value ...]\n"
        "                                 explain tail latency: critical-\n"
        "                                 path breakdown per component,\n"
        "                                 plus the K slowest transactions'\n"
        "                                 span trees (text + Perfetto)\n\n"
        "Run `voodb run <scenario> --help` for the run flags, `voodb "
        "trace --help` for the trace workflow, `voodb profile --help` "
        "for the profiler, `voodb explain --help` for tail analysis.\n";
  return code;
}

int ListScenarios() {
  voodb::util::TextTable table({"Scenario", "Title"});
  for (const voodb::exp::Scenario& s :
       voodb::exp::ScenarioRegistry::Instance().scenarios()) {
    table.AddRow({s.name, s.title});
  }
  table.Print(std::cout);
  std::cout << "\nRun `voodb describe <scenario>` for parameters, "
               "`voodb run <scenario>` to execute.\n";
  return 0;
}

int DescribeScenario(const std::string& name) {
  const voodb::exp::Scenario& s =
      voodb::exp::ScenarioRegistry::Instance().At(name);
  std::cout << s.name << " — " << s.title << "\n\n" << s.description
            << "\n\n";
  if (s.cells) {
    std::cout << "Table cells (--cell=<label> of profile, explain and trace "
                 "record):";
    for (const voodb::exp::Cell& cell :
         s.cells(voodb::exp::ResolveScenario(s, {}, {}))) {
      std::cout << " " << cell.label;
    }
    std::cout << "\n\n";
  }
  if (!s.swept.empty()) {
    std::cout << "Swept by the scenario itself (not --set-overridable):";
    for (const std::string& name : s.swept) std::cout << " " << name;
    std::cout << "\n\n";
  }
  if (!s.system_config_used) {
    std::cout << "Runs the direct-execution emulator only: system "
                 "parameters cannot be overridden.\n\n";
  }
  // Base parameters that differ from the model defaults: the scenario's
  // whole identity, and exactly what `--set` can override.
  const ParamRegistry& registry = ParamRegistry::Instance();
  const ConstParamTarget target{&s.base.system, &s.base.workload};
  voodb::util::TextTable table({"Parameter", "Value", "Default"});
  for (const ParamDescriptor& d : registry.descriptors()) {
    if (registry.IsDefault(target, d)) continue;
    table.AddRow({d.name, registry.GetText(target, d.name),
                  registry.DefaultText(d)});
  }
  std::cout << "Base parameters differing from model defaults (override "
               "any registered parameter with --set):\n";
  table.Print(std::cout);
  return 0;
}

int PrintParams(int argc, const char* const* argv) {
  voodb::util::CliArgs args(argc, argv);
  const bool markdown =
      args.GetBool("markdown", false, "emit a Markdown table (README)");
  const bool csv = args.GetBool("csv", false, "emit CSV");
  if (args.help_requested()) {
    std::cout << "Print every registered parameter (name, domain, type, "
                 "default, range, doc).\n\n"
              << args.Help();
    return 0;
  }
  args.RejectUnknown();
  const ParamRegistry& registry = ParamRegistry::Instance();
  if (markdown) {
    // '|' inside a cell (enum choice lists, "true | false") must be
    // escaped or it splits the Markdown table column.
    auto escape = [](const std::string& cell) {
      std::string out;
      for (const char ch : cell) {
        if (ch == '|') out += '\\';
        out += ch;
      }
      return out;
    };
    std::cout << "| Parameter | Domain | Type | Default | Range | "
                 "Description |\n";
    std::cout << "|---|---|---|---|---|---|\n";
    for (const ParamDescriptor& d : registry.descriptors()) {
      std::cout << "| `" << d.name << "` | " << ToString(d.domain) << " | "
                << ToString(d.type) << " | `" << registry.DefaultText(d)
                << "` | " << escape(d.RangeText()) << " | " << escape(d.doc)
                << " |\n";
    }
    return 0;
  }
  voodb::util::TextTable table(
      {"Parameter", "Domain", "Type", "Default", "Range", "Description"});
  for (const ParamDescriptor& d : registry.descriptors()) {
    table.AddRow({d.name, ToString(d.domain), ToString(d.type),
                  registry.DefaultText(d), d.RangeText(), d.doc});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  voodb::bench::RegisterBenchScenarios();
  if (argc < 2) return Usage(std::cerr, 2);
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "-h" || command == "help") {
      return Usage(std::cout, 0);
    }
    if (command == "list") return ListScenarios();
    if (command == "describe") {
      if (argc < 3) {
        std::cerr << "usage: voodb describe <scenario>\n";
        return 2;
      }
      return DescribeScenario(argv[2]);
    }
    if (command == "params") return PrintParams(argc - 1, argv + 1);
    if (command == "trace") {
      return voodb::bench::RunTraceCommand(argc - 1, argv + 1);
    }
    if (command == "profile") {
      return voodb::bench::RunProfileCommand(argc - 1, argv + 1);
    }
    if (command == "explain") {
      return voodb::bench::RunExplainCommand(argc - 1, argv + 1);
    }
    if (command == "run") {
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        std::cerr << "usage: voodb run <scenario> [flags]  (see `voodb "
                     "list`)\n";
        return 2;
      }
      const std::string scenario = argv[2];
      // Re-point argv at the remaining flags for the harness.
      std::vector<const char*> rest;
      rest.push_back(argv[0]);
      for (int i = 3; i < argc; ++i) rest.push_back(argv[i]);
      return voodb::bench::RunScenarioMain(
          scenario, static_cast<int>(rest.size()), rest.data());
    }
    std::cerr << "unknown command '" << command << "'\n\n";
    return Usage(std::cerr, 2);
  } catch (const voodb::util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

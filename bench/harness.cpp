#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <utility>

#include "exp/report.hpp"
#include "scenarios.hpp"
#include "util/check.hpp"

namespace voodb::bench {

namespace {

/// Accumulates every recorded estimate and writes BENCH_<name>.json once,
/// at process exit (so a bench with several tables/figures lands in one
/// file with one wall clock).
class BenchRecorder {
 public:
  static BenchRecorder& Instance() {
    static BenchRecorder recorder;
    return recorder;
  }

  void Configure(const std::string& bench_name, const std::string& json,
                 const exp::ScenarioOptions& options) {
    std::lock_guard<std::mutex> lock(mu_);
    bench_name_ = bench_name;
    json_ = json;
    options_ = options;
    configured_ = true;
    start_ = std::chrono::steady_clock::now();
    if (!registered_) {
      registered_ = true;
      std::atexit([] { BenchRecorder::Instance().Flush(); });
    }
  }

  void Record(const std::string& section, const std::string& x,
              const std::string& series, const Estimate& e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!configured_ || json_.empty()) return;
    entries_.push_back({section, x, series, e});
  }

  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!configured_ || flushed_ || json_.empty()) return;
    flushed_ = true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    exp::JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(bench_name_);
    w.Key("base_seed").Value(options_.seed);
    w.Key("replications").Value(options_.replications);
    w.Key("transactions").Value(options_.transactions);
    w.Key("threads").Value(static_cast<uint64_t>(options_.threads));
    w.Key("ci_level").Value(0.95);
    w.Key("wall_clock_ms").Value(wall_ms);
    w.Key("sections").BeginArray();
    // Group by section, then by x within the section, both in
    // first-appearance order.  Grouping must tolerate non-contiguous
    // entries: benches like the DSTC tables record a whole series at a
    // time, revisiting each x once per series.
    std::vector<std::string> sections;
    for (const Entry& entry : entries_) {
      if (std::find(sections.begin(), sections.end(), entry.section) ==
          sections.end()) {
        sections.push_back(entry.section);
      }
    }
    for (const std::string& section : sections) {
      w.BeginObject();
      w.Key("name").Value(section);
      w.Key("points").BeginArray();
      std::vector<std::string> xs;
      for (const Entry& entry : entries_) {
        if (entry.section == section &&
            std::find(xs.begin(), xs.end(), entry.x) == xs.end()) {
          xs.push_back(entry.x);
        }
      }
      for (const std::string& x : xs) {
        w.BeginObject();
        w.Key("x").Value(x);
        w.Key("series").BeginObject();
        for (const Entry& entry : entries_) {
          if (entry.section == section && entry.x == x) {
            w.Key(entry.series).BeginObject();
            w.Key("mean").Value(entry.estimate.mean);
            w.Key("ci_half_width").Value(entry.estimate.half_width);
            w.EndObject();
          }
        }
        w.EndObject();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    try {
      exp::WriteFile(json_, w.str());
    } catch (const util::Error& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }

 private:
  struct Entry {
    std::string section;
    std::string x;
    std::string series;
    Estimate estimate;
  };

  std::mutex mu_;
  std::string bench_name_;
  std::string json_;  ///< output path; empty = disabled
  exp::ScenarioOptions options_;
  bool configured_ = false;
  bool flushed_ = false;
  bool registered_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<Entry> entries_;
};

}  // namespace

std::vector<exp::ParamOverride> ParseOverrides(
    const std::vector<std::string>& sets) {
  std::vector<exp::ParamOverride> overrides;
  for (const std::string& assignment : sets) {
    const size_t eq = assignment.find('=');
    VOODB_CHECK_MSG(eq != std::string::npos && eq > 0,
                    "--set expects name=value, got '" << assignment << "'");
    overrides.emplace_back(assignment.substr(0, eq),
                           assignment.substr(eq + 1));
  }
  return overrides;
}

int RunScenarioMain(const std::string& scenario_name, int argc,
                    const char* const* argv) {
  try {
    RegisterBenchScenarios();
    const exp::Scenario& scenario =
        exp::ScenarioRegistry::Instance().At(scenario_name);
    util::CliArgs args(argc, argv);
    exp::ScenarioOptions options;
    options.replications = static_cast<uint64_t>(args.GetInt(
        "replications", 10, "replications per point; paper used 100"));
    options.transactions = static_cast<uint64_t>(
        args.GetInt("transactions", 1000, "transactions per replication"));
    options.seed =
        static_cast<uint64_t>(args.GetInt("seed", 42, "base RNG seed"));
    options.threads = static_cast<size_t>(
        args.GetInt("threads", 0, "farm worker threads; 0 = all cores"));
    options.csv = args.GetBool("csv", false, "CSV output");
    const std::string json = args.GetString(
        "json", "BENCH_" + scenario_name + ".json",
        "result file; \"off\" disables");
    const std::vector<std::string> sets = args.GetList(
        "set",
        "override a model parameter (name=value, repeatable; enum values "
        "by name; see `voodb params`)");
    if (args.help_requested()) {
      std::cout << scenario.title << "\n" << scenario.description << "\n\n"
                << args.Help();
      return 0;
    }
    args.RejectUnknown();
    VOODB_CHECK_MSG(options.replications >= 2,
                    "need at least 2 replications for confidence intervals");
    const std::vector<exp::ParamOverride> overrides = ParseOverrides(sets);

    BenchRecorder::Instance().Configure(
        scenario_name, (json == "off" || json == "none") ? "" : json,
        options);
    RunScenario(scenario, options, overrides);
    return 0;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

Estimate EstimateOf(const desp::Tally& tally) {
  Estimate e;
  e.mean = tally.mean();
  if (tally.count() >= 2 && tally.stddev() > 0.0) {
    e.half_width = desp::StudentConfidenceInterval(tally, 0.95).half_width;
  }
  return e;
}

std::map<std::string, Estimate> EstimatesOf(
    const desp::ReplicationResult& result) {
  std::map<std::string, Estimate> estimates;
  for (const std::string& name : result.MetricNames()) {
    estimates[name] = EstimateOf(result.Metric(name));
  }
  return estimates;
}

void RecordEstimate(const std::string& section, const std::string& x,
                    const std::string& series, const Estimate& e) {
  BenchRecorder::Instance().Record(section, x, series, e);
}

std::string WithCi(const Estimate& e, int precision) {
  return util::FormatDouble(e.mean, precision) + " ±" +
         util::FormatDouble(e.half_width, precision);
}

void PrintTable(const exp::ScenarioOptions& options,
                const std::string& heading, const util::TextTable& table,
                const char* footer) {
  std::cout << "== " << heading << " ==\n";
  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  if (footer != nullptr) std::cout << footer << "\n";
}

}  // namespace voodb::bench

#include "scenarios.hpp"

#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <chrono>

#include "cc/kind.hpp"
#include "cluster/dstc.hpp"
#include "cluster/gay_gruenwald.hpp"
#include "desp/random.hpp"
#include "emu/texas_emulator.hpp"
#include "exp/farm.hpp"
#include "harness.hpp"
#include "micro_cc.hpp"
#include "ocb/workload.hpp"
#include "trace_tools.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "voodb/catalog.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace voodb::bench {

namespace {

using exp::Scenario;
using exp::ScenarioContext;
using exp::ScenarioResult;

/// Records an estimate into both the BENCH json recorder and the
/// scenario's result map ("<x>/<series>/{mean,hw}" keys).
void Note(ScenarioResult& result, const std::string& section,
          const std::string& x, const std::string& series,
          const Estimate& e) {
  RecordEstimate(section, x, series, e);
  result[section + "/" + x + "/" + series + "/mean"] = e.mean;
  result[section + "/" + x + "/" + series + "/hw"] = e.half_width;
}

/// Notes the cell estimates `names` as series of `section`/`x`.
void NoteMetrics(ScenarioResult& result, const std::string& section,
                 const std::string& x,
                 const std::map<std::string, Estimate>& metrics,
                 std::initializer_list<const char*> names) {
  for (const char* name : names) {
    Note(result, section, x, name, metrics.at(name));
  }
}

/// Cells over the values of registry parameter `param`, labelled by the
/// values' registry spellings ("lru_k", "16").
std::function<std::vector<exp::Cell>(const ScenarioContext&)> CellsOver(
    std::string param, std::vector<std::string> values) {
  return [param = std::move(param),
          values = std::move(values)](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const std::string& value : values) {
      exp::Cell cell{value, ctx.config, ctx.options.transactions};
      core::ParamRegistry::Instance().Set(
          core::ParamTarget{&cell.config.system, &cell.config.workload}, param,
          value);
      cells.push_back(std::move(cell));
    }
    return cells;
  };
}

ocb::OcbParameters FigureWorkload(uint32_t num_classes, uint64_t num_objects) {
  ocb::OcbParameters p;  // Table 5 defaults (PSET..STODEPTH = OCB values)
  p.num_classes = num_classes;
  p.num_objects = num_objects;
  return p;
}

ocb::OcbParameters DstcWorkload() {
  // §4.4: "very characteristic transactions (namely, depth-3 hierarchy
  // traversals)" in favorable conditions — a hot set of repeatedly
  // traversed roots over the mid-sized NC=50 / NO=20000 base.
  ocb::OcbParameters p;
  p.num_classes = 50;
  p.num_objects = 20000;
  p.hierarchy_depth = 3;
  p.root_region = 30;
  return p;
}

void Register(Scenario s) {
  exp::ScenarioRegistry::Instance().Register(std::move(s));
}

// --- Validation figures (fig06..fig11) --------------------------------------

/// The six NO points of Figures 6/7/9/10.
constexpr uint64_t kInstancePoints[] = {500, 1000, 2000, 5000, 10000, 20000};

/// Adds the latency row of `x` (the "<prefix>p50_ms" .. "<prefix>max_ms"
/// cell estimates over `count` responses) to `table` and notes it as
/// series p50/p95/p99/p999/max of `section`.
void NoteLatency(ScenarioResult& result, util::TextTable& table,
                 const std::string& section, const std::string& x,
                 uint64_t count, const std::map<std::string, Estimate>& metrics,
                 const std::string& prefix) {
  std::vector<std::string> row = {x, std::to_string(count)};
  for (const char* series : {"p50", "p95", "p99", "p999", "max"}) {
    const Estimate& e = metrics.at(prefix + series + "_ms");
    Note(result, section, x, series, e);
    row.push_back(util::FormatDouble(e.mean, 2));
  }
  table.AddRow(std::move(row));
}

util::TextTable LatencyTable(const std::string& x_label) {
  return util::TextTable(
      {x_label, "Count", "p50", "p95", "p99", "p999", "Max"});
}

/// Runs a figure's cells and prints the paper's layout: Benchmark(emu)
/// vs Simulation(VOODB) per x, then the simulation's response-time
/// percentiles.
ScenarioResult RunFigure(const ScenarioContext& ctx,
                         const std::string& x_label,
                         const std::vector<double>& paper_bench,
                         const std::vector<double>& paper_sim) {
  const std::string& title = ctx.scenario->title;
  const std::string latency_title = title + " — response time (ms, sim)";
  ScenarioResult result;
  util::TextTable figure({x_label, "Benchmark(emu)", "Simulation(VOODB)",
                          "Sim/Bench", "Paper bench*", "Paper sim*"});
  util::TextTable latency = LatencyTable(x_label);
  const std::vector<exp::CellResult> cells =
      exp::RunCells(ctx.scenario->cells(ctx), ctx.options);
  VOODB_CHECK(cells.size() == paper_bench.size() &&
              cells.size() == paper_sim.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto& [cell, replicated] = cells[i];
    const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
    const Estimate& bench = metrics.at("emu_total_ios");
    const Estimate& sim = metrics.at("total_ios");
    Note(result, title, cell.label, "benchmark", bench);
    Note(result, title, cell.label, "simulation", sim);
    figure.AddRow({cell.label, WithCi(bench), WithCi(sim),
                   util::FormatDouble(
                       bench.mean > 0 ? sim.mean / bench.mean : 0.0, 3),
                   util::FormatDouble(paper_bench[i], 0),
                   util::FormatDouble(paper_sim[i], 0)});
    NoteLatency(result, latency, latency_title, cell.label,
                replicated.replications() * cell.transactions, metrics, "");
  }
  PrintTable(ctx.options, title, figure,
             "(*) paper series read off the published figure; "
             "approximate.  Shapes, not absolute values, are the "
             "reproduction target (see README.md and "
             "tests/test_paper_validation.cpp).\n");
  PrintTable(ctx.options, latency_title, latency, "");
  return result;
}

void RegisterInstanceFigure(const char* name, exp::EmulatorKind system,
                            uint32_t num_classes, const char* title,
                            const char* description,
                            std::vector<double> paper_bench,
                            std::vector<double> paper_sim) {
  Scenario s;
  s.name = name;
  s.title = title;
  s.description = description;
  s.base.workload = FigureWorkload(num_classes, 20000);
  // Default memory budgets of §4.2.1: O2's 16 MB server cache, Texas'
  // 64 MB host.
  const double memory_mb = system == exp::EmulatorKind::kO2 ? 16.0 : 64.0;
  s.base.system = system == exp::EmulatorKind::kO2
                      ? core::SystemCatalog::O2WithCache(memory_mb)
                      : core::SystemCatalog::TexasWithMemory(memory_mb);
  s.swept = {"num_objects"};
  s.cells = [system, memory_mb](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const uint64_t no : kInstancePoints) {
      exp::Cell cell{std::to_string(no), ctx.config, ctx.options.transactions,
                     system, memory_mb};
      cell.config.workload.num_objects = no;
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  s.run = [paper_bench = std::move(paper_bench),
           paper_sim = std::move(paper_sim)](const ScenarioContext& ctx) {
    return RunFigure(ctx, "Instances", paper_bench, paper_sim);
  };
  Register(std::move(s));
}

void RegisterMemoryFigure(const char* name, exp::EmulatorKind system,
                          const char* title, const char* description,
                          std::vector<double> paper_bench,
                          std::vector<double> paper_sim) {
  Scenario s;
  s.name = name;
  s.title = title;
  s.description = description;
  s.base.workload = FigureWorkload(50, 20000);
  s.base.system = system == exp::EmulatorKind::kO2
                      ? core::SystemCatalog::O2WithCache(16.0)
                      : core::SystemCatalog::TexasWithMemory(64.0);
  s.swept = {"buffer_pages"};
  // The memory budget drives both legs: the emulator's cache (O2) or
  // host memory (Texas) in MB, and the catalog-rescaled simulation
  // buffer.
  s.cells = [system](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const double mb : MemoryPoints()) {
      exp::Cell cell{util::FormatDouble(mb, 0), ctx.config,
                     ctx.options.transactions, system, mb};
      if (system == exp::EmulatorKind::kO2) {
        core::SystemCatalog::SetO2Cache(cell.config.system, mb);
      } else {
        core::SystemCatalog::SetTexasMemory(cell.config.system, mb);
      }
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  s.run = [x_label = system == exp::EmulatorKind::kO2 ? "Cache (MB)"
                                                 : "Memory (MB)",
           paper_bench = std::move(paper_bench),
           paper_sim = std::move(paper_sim)](const ScenarioContext& ctx) {
    return RunFigure(ctx, x_label, paper_bench, paper_sim);
  };
  Register(std::move(s));
}

// --- DSTC tables (table6..table8) -------------------------------------------

/// A cell of `ctx` running the clustering phases under the CLUSTP module
/// `make_policy` builds (none when empty).
exp::Cell ClusteringCell(std::string label, const ScenarioContext& ctx,
                         core::ClusteringFactory make_policy) {
  exp::Cell cell{std::move(label), ctx.config, ctx.options.transactions};
  cell.config.make_policy = std::move(make_policy);
  cell.clustering_phases = true;
  return cell;
}

std::unique_ptr<cluster::ClusteringPolicy> MakeDstc() {
  return std::make_unique<cluster::DstcPolicy>();
}

double Ratio(const Estimate& a, const Estimate& b) {
  return b.mean > 0.0 ? a.mean / b.mean : 0.0;
}

/// A printed row of a DSTC table: label, cell metric, and the paper's
/// benchmark / simulation / ratio values.
struct DstcRow {
  const char* label;
  const char* metric;
  const char* paper_bench;
  const char* paper_sim;
  const char* paper_ratio;
};

void RegisterDstcTable(const char* name, double memory_mb, const char* title,
                       const char* description, std::vector<DstcRow> rows,
                       const char* footer) {
  Scenario s;
  s.name = name;
  s.title = title;
  s.description = description;
  s.base.workload = DstcWorkload();
  s.base.system = core::SystemCatalog::TexasWithMemory(memory_mb);
  // One cell: the Texas emulator (physical OIDs) beside the VOODB
  // simulation (logical OIDs), both through the DSTC phase protocol.
  s.cells = [memory_mb](const ScenarioContext& ctx) {
    exp::Cell cell = ClusteringCell("dstc", ctx, MakeDstc);
    cell.emulator = exp::EmulatorKind::kTexas;
    cell.emulator_mb = memory_mb;
    return std::vector<exp::Cell>{std::move(cell)};
  };
  s.run = [rows = std::move(rows), footer](const ScenarioContext& ctx) {
    const exp::CellResult cell =
        std::move(exp::RunCells(ctx.scenario->cells(ctx), ctx.options).front());
    const std::map<std::string, Estimate> metrics =
        EstimatesOf(cell.result);
    ScenarioResult result;
    const std::pair<const char*, const char*> series[] = {
        {"pre_clustering_ios", "pre_ios"},
        {"clustering_overhead_ios", "overhead_ios"},
        {"post_clustering_ios", "post_ios"},
        {"gain", "gain"},
        {"clusters", "clusters"},
        {"mean_cluster_size", "cluster_size"}};
    for (const auto& [x, metric] : series) {
      Note(result, "dstc", x, "benchmark",
           metrics.at(std::string("emu_") + metric));
      Note(result, "dstc", x, "simulation", metrics.at(metric));
    }
    const std::string latency_title = "dstc — response time (ms, sim)";
    util::TextTable latency = LatencyTable("Phase");
    const uint64_t count =
        cell.result.replications() * cell.cell.transactions;
    NoteLatency(result, latency, latency_title, "pre_clustering", count,
                metrics, "pre_");
    NoteLatency(result, latency, latency_title, "post_clustering", count,
                metrics, "");
    PrintTable(ctx.options, latency_title, latency, "");
    util::TextTable table({"Row", "Bench.", "Sim.", "Ratio", "Paper bench",
                           "Paper sim", "Paper ratio"});
    for (const DstcRow& row : rows) {
      const Estimate& bench = metrics.at(std::string("emu_") + row.metric);
      const Estimate& sim = metrics.at(row.metric);
      table.AddRow({row.label, WithCi(bench), WithCi(sim),
                    util::FormatDouble(Ratio(bench, sim), 4), row.paper_bench,
                    row.paper_sim, row.paper_ratio});
    }
    PrintTable(ctx.options, ctx.scenario->title, table, footer);
    return result;
  };
  Register(std::move(s));
}

// --- Ablations ---------------------------------------------------------------

void RegisterAblationBufferPolicy() {
  Scenario s;
  s.name = "ablation_buffer_policy";
  s.title = "Ablation: page replacement (PGREP)";
  s.description =
      "Buffer page replacement strategies under the OCB workload with a "
      "buffer smaller than the base — the paper's §5 notes buffering "
      "strategies \"influence the performances of OODBs a lot\".";
  s.base.workload = FigureWorkload(50, 20000);
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 1200;  // ~1/4 of the base
  s.swept = {"page_replacement"};
  s.base.system.lru_k = 2;
  s.cells = CellsOver("page_replacement", {"random", "fifo", "lfu", "lru",
                                           "lru_k", "clock", "gclock"});
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"PGREP", "Mean I/Os", "Hit rate"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const char* x = ToString(cell.config.system.page_replacement);
      NoteMetrics(result, "pgrep", x, metrics, {"total_ios", "hit_rate"});
      table.AddRow({x, WithCi(metrics.at("total_ios")),
                    util::FormatDouble(metrics.at("hit_rate").mean, 3)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: recency-aware policies (LRU, LRU-K, CLOCK, "
               "GCLOCK) beat RANDOM/FIFO on the traversal-heavy OCB mix.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationClustering() {
  Scenario s;
  s.name = "ablation_clustering";
  s.title = "Ablation: clustering policy (CLUSTP)";
  s.description =
      "Interchangeable clustering modules (None / DSTC / Gay-Gruenwald) "
      "on the DSTC workload — the paper's stated end-goal (\"the ultimate "
      "goal is to compare different clustering strategies\").";
  s.base.workload = DstcWorkload();
  s.base.system = core::SystemCatalog::Texas();
  s.cells = [](const ScenarioContext& ctx) {
    return std::vector<exp::Cell>{
        ClusteringCell("NONE", ctx, nullptr),
        ClusteringCell("DSTC", ctx, MakeDstc),
        ClusteringCell("GAY_GRUENWALD", ctx, [] {
          return std::make_unique<cluster::GayGruenwaldPolicy>();
        })};
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"CLUSTP", "Pre I/Os", "Overhead I/Os", "Post I/Os",
                           "Gain", "Clusters"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const std::pair<const char*, const char*> series[] = {
          {"clusters", "clusters"},
          {"gain", "gain"},
          {"overhead", "overhead_ios"},
          {"post_ios", "post_ios"},
          {"pre_ios", "pre_ios"}};
      for (const auto& [name, metric] : series) {
        Note(result, "clustp", cell.label, name, metrics.at(metric));
      }
      table.AddRow({cell.label, WithCi(metrics.at("pre_ios")),
                    util::FormatDouble(metrics.at("overhead_ios").mean, 0),
                    util::FormatDouble(metrics.at("post_ios").mean, 0),
                    util::FormatDouble(metrics.at("gain").mean, 2),
                    util::FormatDouble(metrics.at("clusters").mean, 0)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: NONE shows gain ~1 and zero overhead; both "
               "dynamic policies pay a reorganization but repay it with "
               "post-clustering usage well below pre-clustering usage.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationFailures() {
  Scenario s;
  s.name = "ablation_failures";
  s.title = "Ablation: random hazards (crash MTBF, disk faults)";
  s.description =
      "Availability cost of crashes as a function of MTBF, and of "
      "transient disk faults as a function of the fault probability "
      "(the §5 random-hazards extension).";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 10;
    wl.num_objects = 2000;
    wl.p_update = 0.2;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.swept = {"failure_mtbf_ms", "disk_fault_prob"};
  s.base.system.buffer_pages = 512;
  s.cells = [](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const double mtbf_s : {0.0, 60.0, 20.0, 5.0}) {
      exp::Cell cell{"mtbf/" + (mtbf_s == 0.0 ? std::string("inf")
                                              : util::FormatDouble(mtbf_s, 0)),
                     ctx.config, ctx.options.transactions / 2};
      cell.config.system.failure_mtbf_ms = mtbf_s * 1000.0;
      cells.push_back(std::move(cell));
    }
    for (const double prob : {0.0, 0.01, 0.05, 0.2}) {
      exp::Cell cell{"fault/" + util::FormatDouble(prob, 2), ctx.config,
                     ctx.options.transactions / 2};
      cell.config.system.disk_fault_prob = prob;
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable crash_table({"MTBF (s)", "Sim time (s)", "Crashes",
                                 "Recovery (s)", "Extra I/Os vs healthy"});
    util::TextTable fault_table({"Fault prob", "Sim time (s)", "Faults",
                                 "I/Os"});
    double healthy_ios = 0.0;
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const std::string x = cell.label.substr(cell.label.find('/') + 1);
      const double ios = metrics.at("total_ios").mean;
      if (cell.label.rfind("mtbf/", 0) == 0) {
        if (x == "inf") healthy_ios = ios;
        NoteMetrics(result, "crash_mtbf", x, metrics,
                    {"crashes", "recovery_s", "sim_s", "total_ios"});
        crash_table.AddRow(
            {x, WithCi(metrics.at("sim_s"), 2),
             util::FormatDouble(metrics.at("crashes").mean, 1),
             util::FormatDouble(metrics.at("recovery_s").mean, 2),
             util::FormatDouble(ios - healthy_ios, 0)});
      } else {
        NoteMetrics(result, "disk_faults", x, metrics,
                    {"faults", "sim_s", "total_ios"});
        fault_table.AddRow({x, WithCi(metrics.at("sim_s"), 2),
                            util::FormatDouble(metrics.at("faults").mean, 0),
                            util::FormatDouble(ios, 0)});
      }
    }
    PrintTable(ctx.options, "Ablation: crash MTBF", crash_table, nullptr);
    std::cout << "\n";
    PrintTable(ctx.options, "Ablation: transient disk faults", fault_table,
               "Expectation: crashes add I/Os (lost buffer re-reads) and "
               "downtime; transient faults stretch time while the I/O "
               "count stays constant.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationLocking() {
  Scenario s;
  s.name = "ablation_locking";
  s.title = "Ablation: lock model";
  s.description =
      "The fixed GETLOCK-delay model of the paper vs the real 2PL lock "
      "manager with wait-die, across update ratios — quantifies what the "
      "simpler model misses (blocking, restarts, tail latency).";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 10;
    wl.num_objects = 1000;
    wl.root_region = 8;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 256;
  s.base.system.num_users = 8;
  s.swept = {"p_update", "use_lock_manager"};
  s.base.system.multiprogramming_level = 8;
  s.cells = [](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const double p_update : {0.0, 0.2, 0.5}) {
      for (const bool real_locks : {false, true}) {
        exp::Cell cell{util::FormatDouble(p_update, 1) +
                           (real_locks ? "/2PL" : "/fixed"),
                       ctx.config, ctx.options.transactions / 2};
        cell.config.workload.p_update = p_update;
        cell.config.system.use_lock_manager = real_locks;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"PUPDATE", "Lock model", "Throughput (tps)",
                           "Restarts", "p50 (ms)", "p99 (ms)"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const std::string p_update =
          util::FormatDouble(cell.config.workload.p_update, 1);
      const bool real_locks = cell.config.system.use_lock_manager;
      NoteMetrics(result, "lock_model",
                  p_update + (real_locks ? " 2PL" : " fixed"), metrics,
                  {"p50_ms", "p99_ms", "restarts", "throughput_tps"});
      table.AddRow({p_update, real_locks ? "2PL wait-die" : "fixed delay",
                    WithCi(metrics.at("throughput_tps"), 2),
                    util::FormatDouble(metrics.at("restarts").mean, 0),
                    util::FormatDouble(metrics.at("p50_ms").mean, 1),
                    util::FormatDouble(metrics.at("p99_ms").mean, 1)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: the models agree on read-only workloads; as "
               "PUPDATE grows, real locking shows restarts, lower "
               "throughput and a stretched p99 that the fixed-delay model "
               "cannot see.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationMultiprog() {
  Scenario s;
  s.name = "ablation_multiprog";
  s.title = "Ablation: multiprogramming level (MULTILVL)";
  s.description =
      "Multiprogramming level under a multi-user workload — throughput "
      "rises with admitted concurrency until the disk saturates, then "
      "degrades as working sets thrash the shared buffer.";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 20;
    wl.num_objects = 5000;
    wl.think_time_ms = 5.0;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 120;  // scarce memory: disk-bound regime
  s.swept = {"multiprogramming_level"};
  s.base.system.num_users = 32;
  s.cells = CellsOver("multiprogramming_level", {"1", "2", "4", "8", "16"});
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"MULTILVL", "Throughput (tps)", "Resp (ms)",
                           "Disk util", "Mean I/Os"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      NoteMetrics(result, "multilvl", cell.label, metrics,
                  {"disk_util", "mean_response_ms", "throughput_tps",
                   "total_ios"});
      table.AddRow({cell.label, WithCi(metrics.at("throughput_tps"), 2),
                    util::FormatDouble(metrics.at("mean_response_ms").mean,
                                       1),
                    util::FormatDouble(metrics.at("disk_util").mean, 3),
                    util::FormatDouble(metrics.at("total_ios").mean, 0)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: throughput grows with MULTILVL while the disk "
               "has headroom, peaks, then *degrades* under over-admission "
               "as concurrent transactions' working sets thrash the shared "
               "buffer (watch Mean I/Os rise) — the classic reason the "
               "database scheduler caps the multiprogramming level.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationPlacement() {
  Scenario s;
  s.name = "ablation_placement";
  s.title = "Ablation: initial placement (INITPL)";
  s.description =
      "Initial placement policy (Sequential vs OptimizedSequential vs "
      "ReferenceDfs) under the OCB mixed workload on both validated "
      "configurations: system --set overrides are re-applied on top of "
      "each of the O2 and Texas presets (INITPL itself is the swept "
      "knob).";
  s.base.workload = FigureWorkload(50, 20000);
  s.swept = {"initial_placement"};
  s.base.system = core::SystemCatalog::O2();
  s.cells = [](const ScenarioContext& ctx) {
    const core::ParamRegistry& registry = core::ParamRegistry::Instance();
    std::vector<exp::Cell> cells;
    for (const bool o2 : {true, false}) {
      for (const storage::PlacementPolicy placement :
           {storage::PlacementPolicy::kSequential,
            storage::PlacementPolicy::kOptimizedSequential,
            storage::PlacementPolicy::kReferenceDfs}) {
        exp::Cell cell{std::string(o2 ? "O2/" : "Texas/") +
                           ToString(placement),
                       ctx.config, ctx.options.transactions};
        core::VoodbConfig& cfg = cell.config.system;
        cfg = o2 ? core::SystemCatalog::O2() : core::SystemCatalog::Texas();
        // Re-apply the run's system overrides on this preset (workload
        // ones already shaped ctx.config.workload).
        for (const auto& [param, value] : ctx.overrides) {
          if (registry.At(param).domain != core::ParamDomain::kWorkload) {
            registry.Set(core::ParamTarget{&cfg, nullptr}, param, value);
          }
        }
        cfg.initial_placement = placement;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"System", "INITPL", "Mean I/Os", "Hit rate"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const std::string system = cell.label.substr(0, cell.label.find('/'));
      const char* placement = ToString(cell.config.system.initial_placement);
      NoteMetrics(result, "initpl", system + " " + placement, metrics,
                  {"total_ios", "hit_rate"});
      table.AddRow({system, placement, WithCi(metrics.at("total_ios")),
                    util::FormatDouble(metrics.at("hit_rate").mean, 3)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: when the base fits in memory (Texas), "
               "ReferenceDfs — an idealized static clustering — beats "
               "OptimizedSequential, which is what leaves room for dynamic "
               "clustering to win in Tables 6-8; under heavy thrashing "
               "(O2's 16 MB cache vs a ~26 MB base) placement differences "
               "compress because most accesses miss regardless.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationSysclass() {
  Scenario s;
  s.name = "ablation_sysclass";
  s.title = "Ablation: system class (SYSCLASS)";
  s.description =
      "The four Client-Server architectures of the generic model under "
      "identical workload and a finite network, reporting I/Os, network "
      "traffic and response time.";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 20;
    wl.num_objects = 5000;
    s.base.workload = wl;
  }
  s.base.system.network_throughput_mbps = 1.0;  // Table 3 default
  s.swept = {"system_class"};
  s.base.system.buffer_pages = 1500;
  s.cells = CellsOver("system_class", {"centralized", "object_server",
                                       "page_server", "db_server"});
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table({"SYSCLASS", "Mean I/Os", "Net MB", "Resp (ms)",
                           "Throughput (tps)"});
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      const char* x = ToString(cell.config.system.system_class);
      NoteMetrics(result, "sysclass", x, metrics,
                  {"mean_response_ms", "network_mb", "throughput_tps",
                   "total_ios"});
      table.AddRow({x, WithCi(metrics.at("total_ios")),
                    util::FormatDouble(metrics.at("network_mb").mean, 2),
                    util::FormatDouble(metrics.at("mean_response_ms").mean,
                                       2),
                    util::FormatDouble(metrics.at("throughput_tps").mean,
                                       2)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: identical server I/Os (same buffer and "
               "placement) but network traffic PageServer > ObjectServer > "
               "DbServer > Centralized, reflected in response times.");
    return result;
  };
  Register(std::move(s));
}

void RegisterAblationVmModel() {
  Scenario s;
  s.name = "ablation_vm_model";
  s.title = "Ablation: Texas VM model knobs (Figure 11 mechanism)";
  s.description =
      "The Texas virtual-memory model's behavioural knobs "
      "(reserve-on-swizzle, hot/cold reservation insertion, "
      "dirty-on-load) on the direct-execution emulator — justifies the "
      "modelling choices that produce Figure 11's exponential "
      "degradation.";
  s.base.workload = FigureWorkload(50, 20000);
  s.base.system = core::SystemCatalog::Texas();
  s.system_config_used = false;
  s.run = [](const ScenarioContext& ctx) {
    const exp::ScenarioOptions& options = ctx.options;
    const ocb::ObjectBase base =
        ocb::ObjectBase::Generate(ctx.config.workload);
    struct Variant {
      const char* name;
      bool reserve;
      bool hot;
      bool dirty;
    };
    const Variant variants[] = {
        {"full model (reserve, hot, dirty)", true, true, true},
        {"cold reservations", true, false, true},
        {"no reservations", false, false, true},
        {"clean loads (no swizzle dirty)", true, true, false},
        {"plain demand paging", false, false, false},
    };
    const double memories[] = {8.0, 16.0, 64.0};
    const size_t per_variant = std::size(memories);
    // One point per (variant, memory), all on one pool and one seed chain.
    exp::FarmOptions farm;
    farm.threads = options.threads;
    farm.base_seed = options.seed;
    const std::vector<desp::ReplicationResult> replicated = exp::RunGrid(
        std::size(variants) * per_variant,
        [&](size_t p) -> exp::Model {
          const Variant& v = variants[p / per_variant];
          emu::TexasConfig cfg;
          cfg.memory_pages = emu::TexasConfig::FramesForMemory(
              memories[p % per_variant], 4096);
          cfg.reserve_references = v.reserve;
          cfg.reservations_enter_hot = v.hot;
          cfg.dirty_on_load = v.dirty;
          return [cfg, &base, transactions = options.transactions](
                     uint64_t seed, desp::MetricSink& sink) {
            emu::TexasEmulator texas(cfg, &base, seed);
            ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
            sink.Observe("total_ios",
                         static_cast<double>(
                             texas.RunTransactions(gen, transactions)
                                 .total_ios));
          };
        },
        options.replications, farm);
    ScenarioResult result;
    util::TextTable table({"Variant", "I/Os @8MB", "I/Os @16MB",
                           "I/Os @64MB", "8MB/64MB"});
    for (size_t p = 0; p < replicated.size(); p += per_variant) {
      const char* name = variants[p / per_variant].name;
      double at[3] = {0, 0, 0};
      for (size_t i = 0; i < per_variant; ++i) {
        const Estimate e = EstimateOf(replicated[p + i].Metric("total_ios"));
        Note(result, "vm_model", name,
             "ios_at_" + util::FormatDouble(memories[i], 0) + "mb", e);
        at[i] = e.mean;
      }
      table.AddRow({name, util::FormatDouble(at[0], 0),
                    util::FormatDouble(at[1], 0),
                    util::FormatDouble(at[2], 0),
                    util::FormatDouble(at[2] > 0 ? at[0] / at[2] : 0, 1)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: the degradation factor under memory pressure "
               "collapses as each Texas behaviour is removed; plain demand "
               "paging is the O2-like linear baseline.");
    return result;
  };
  Register(std::move(s));
}

// --- Parallel kernel / sharding ----------------------------------------------

double WallClockMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void RegisterShardScale() {
  Scenario s;
  s.name = "shard_scale";
  s.title = "Sharded VOODB on the conservative parallel kernel";
  s.description =
      "N hash-partitioned storage-server stacks (shards) under the "
      "conservative window protocol, swept over shards with the total "
      "transaction count held constant; the windows run on one thread.  "
      "--set multi_partition_pct=... steers the cross-shard traffic; "
      "--transactions=N is the total workload across shards.";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 20;
    wl.num_objects = 8000;
    wl.think_time_ms = 1.0;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 512;
  s.base.system.network_throughput_mbps = 1.0;
  s.base.system.num_users = 3;
  s.base.system.multi_partition_pct = 0.2;
  s.swept = {"shards"};
  s.run = [](const ScenarioContext& ctx) {
    const exp::ScenarioOptions& options = ctx.options;
    const ocb::ObjectBase base =
        ocb::ObjectBase::Generate(ctx.config.workload);
    ScenarioResult result;
    util::TextTable table({"Shards", "Txns", "Mean I/Os", "Remote",
                           "Windows", "Wall (ms)"});
    for (const uint32_t shards : {1u, 2u, 4u, 8u}) {
      // Total workload held constant: per-shard share of --transactions.
      const uint64_t per_shard =
          std::max<uint64_t>(1, options.transactions / shards);
      core::VoodbConfig cfg = ctx.config.system;
      cfg.shards = shards;
      core::PhaseMetrics m;
      uint64_t remote = 0;
      uint64_t windows = 0;
      const double wall_ms = WallClockMs([&] {
        core::ShardedVoodb sys(cfg, &base, options.seed);
        m = sys.Run(per_shard);
        remote = sys.remote_subtxns();
        windows = sys.kernel().Windows();
      });
      // "<shards>s_1t": the cell's shards on one simulation thread.
      const std::string cell = std::to_string(shards) + "s_1t";
      Note(result, "shard_scale", cell, "total_ios",
           Estimate{static_cast<double>(m.total_ios), 0.0});
      Note(result, "shard_scale", cell, "wall_ms", Estimate{wall_ms, 0.0});
      table.AddRow({std::to_string(shards), std::to_string(m.transactions),
                    std::to_string(m.total_ios), std::to_string(remote),
                    std::to_string(windows), util::FormatDouble(wall_ms, 1)});
    }
    PrintTable(ctx.options, ctx.scenario->title, table, nullptr);
    return result;
  };
  Register(std::move(s));
}

// --- Concurrency control -----------------------------------------------------

constexpr cc::ProtocolKind kCcProtocols[] = {
    cc::ProtocolKind::kNoWait, cc::ProtocolKind::kWaitDie,
    cc::ProtocolKind::kDeadlockDetect, cc::ProtocolKind::kMvcc,
    cc::ProtocolKind::kOcc};

/// Table header of the contention studies: `keys` then one column per
/// cell metric of `exp::RunCells`.
std::vector<std::string> ContentionHeader(std::vector<std::string> keys) {
  for (const char* column : {"Throughput (tps)", "Abort rate", "p99 (ms)",
                             "Lock p99", "IO p99", "Retry", "Restarts"}) {
    keys.emplace_back(column);
  }
  return keys;
}

std::vector<std::string> ContentionRow(
    std::vector<std::string> keys,
    const std::map<std::string, Estimate>& metrics) {
  keys.push_back(WithCi(metrics.at("throughput_tps"), 2));
  keys.push_back(util::FormatDouble(metrics.at("abort_rate").mean, 3));
  for (const char* metric :
       {"p99_ms", "lock_wait_p99_ms", "io_p99_ms", "retry_ms"}) {
    keys.push_back(util::FormatDouble(metrics.at(metric).mean, 1));
  }
  keys.push_back(util::FormatDouble(metrics.at("restarts").mean, 0));
  return keys;
}

void RegisterCcAbyss() {
  Scenario s;
  s.name = "cc_abyss";
  s.title = "Concurrency-control abyss: NUSERS x protocol contention study";
  s.description =
      "Every cc::Protocol (2PL no-wait, wait-die, deadlock detection, "
      "MVCC, OCC) swept over the number of users up to 4096 on a small "
      "hot object base — the classic many-core contention study (\"1000 "
      "cores\" style) run inside the VOODB model.  Emits throughput, "
      "abort-rate and p99 response-time curves per protocol into "
      "BENCH_cc_abyss.json.  Every cell (<users>/<protocol>, the "
      "--cell label of `voodb profile|explain|trace record`) is "
      "replicated on the farm with 95 % Student-t CIs, like every other "
      "model scenario.  --set num_users=N caps the user "
      "grid (CI runs a tiny grid this way); --transactions=N is the "
      "floor on transactions per cell (raised to one per user).";
  {
    // Short uniform random-access transactions (the contention-study
    // shape): 8 independent accesses over a 20k-object base, 25% writes.
    // Conflicts are rare at 16 users and dense at 4096 — the sweep walks
    // the whole contention regime instead of saturating immediately.
    ocb::OcbParameters wl;
    wl.num_classes = 20;
    wl.num_objects = 20000;
    wl.p_set = 0.0;
    wl.p_simple = 0.0;
    wl.p_hierarchy = 0.0;
    wl.p_stochastic = 0.0;
    wl.p_random_access = 1.0;
    wl.random_access_count = 8;
    wl.p_update = 0.25;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 1024;
  s.base.system.use_lock_manager = true;
  s.base.system.num_users = 4096;
  s.swept = {"cc_protocol", "multiprogramming_level", "use_lock_manager"};
  s.cells = [](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const uint32_t users : {16u, 64u, 256u, 1024u, 4096u}) {
      if (users > ctx.config.system.num_users) continue;  // --set cap
      for (const cc::ProtocolKind kind : kCcProtocols) {
        exp::Cell cell{std::to_string(users) + "/" + cc::ToString(kind),
                       ctx.config,
                       std::max<uint64_t>(ctx.options.transactions, users)};
        cell.config.system.use_lock_manager = true;
        cell.config.system.cc_protocol = kind;
        cell.config.system.num_users = users;
        cell.config.system.multiprogramming_level = users;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table(ContentionHeader({"NUSERS", "Protocol"}));
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::string x = std::to_string(cell.config.system.num_users);
      const std::string name = cc::ToString(cell.config.system.cc_protocol);
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      Note(result, "throughput", x, name, metrics.at("throughput_tps"));
      for (const char* metric : {"abort_rate", "p99_ms", "lock_wait_p99_ms",
                                 "io_p99_ms", "retry_ms"}) {
        Note(result, metric, x, name, metrics.at(metric));
      }
      table.AddRow(ContentionRow({x, name}, metrics));
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: no-wait aborts hardest but keeps latency "
               "flat; wait-die restarts grow with contention; deadlock "
               "detection trades aborts for graph-walk waits; MVCC reads "
               "never block (aborts are write-write only); OCC collapses "
               "once the validation window fills with conflicting "
               "commits.");
    return result;
  };
  Register(std::move(s));
}

void RegisterYcsbZipf() {
  Scenario s;
  s.name = "ycsb_zipf";
  s.title = "YCSB-style zipfian read/write mix under 2PL";
  s.description =
      "The cloud-serving access pattern the CC literature sweeps: every "
      "transaction is ycsb_ops_per_txn independent point accesses whose "
      "keys follow a Zipf law over the object base and whose read/write "
      "mix is a per-access coin flip.  Sweeps skew x read mix under the "
      "real lock manager and reports throughput, abort rate and p99 per "
      "cell.  The workload_source=ycsb_zipf axis this scenario pins down "
      "is available to every other scenario too — e.g. `voodb run "
      "cc_abyss --set workload_source=ycsb_zipf --set ycsb_skew=1.2` "
      "re-runs the contention study on a hotspot workload.";
  {
    ocb::OcbParameters wl;
    wl.num_classes = 10;
    wl.num_objects = 8000;
    s.base.workload = wl;
  }
  s.base.system.system_class = core::SystemClass::kCentralized;
  s.base.system.buffer_pages = 512;
  s.base.system.use_lock_manager = true;
  s.base.system.num_users = 32;
  s.base.system.multiprogramming_level = 32;
  s.base.system.workload_source = core::WorkloadSourceKind::kYcsbZipf;
  s.swept = {"ycsb_skew", "ycsb_read_pct"};
  s.cells = [](const ScenarioContext& ctx) {
    std::vector<exp::Cell> cells;
    for (const double skew : {0.0, 0.9, 1.2}) {
      for (const double read_pct : {0.5, 0.95}) {
        // ycsb_* tunables ride on the object base's parameter block, so
        // each cell gets its own base (structure params are unchanged —
        // the object graph is identical every time).
        exp::Cell cell{util::FormatDouble(skew, 1) + "/" +
                           util::FormatDouble(read_pct, 2),
                       ctx.config, ctx.options.transactions};
        cell.config.workload.ycsb_skew = skew;
        cell.config.workload.ycsb_read_pct = read_pct;
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  s.run = [](const ScenarioContext& ctx) {
    ScenarioResult result;
    util::TextTable table(ContentionHeader({"Skew", "Read pct"}));
    for (const auto& [cell, replicated] :
         exp::RunCells(ctx.scenario->cells(ctx), ctx.options)) {
      const std::map<std::string, Estimate> metrics = EstimatesOf(replicated);
      NoteMetrics(result, "ycsb", cell.label, metrics,
                  {"abort_rate", "io_p99_ms", "lock_wait_p99_ms", "p99_ms",
                   "restarts", "retry_ms", "throughput_tps"});
      const ocb::OcbParameters& wl = cell.config.workload;
      table.AddRow(ContentionRow({util::FormatDouble(wl.ycsb_skew, 1),
                                  util::FormatDouble(wl.ycsb_read_pct, 2)},
                                 metrics));
    }
    PrintTable(ctx.options, ctx.scenario->title, table,
               "Expectation: contention — abort rate and p99 — rises with "
               "skew and with the write fraction; at skew 0 the mix is "
               "uniform and aborts stay near zero.");
    return result;
  };
  Register(std::move(s));
}

// --- Micro benches -----------------------------------------------------------

void RegisterMicroBenches() {
  {
    Scenario s;
    s.name = "micro_cc";
    s.title = "Micro: concurrency-control protocol overhead";
    s.description =
        "A synthetic contended lock workload driven through every "
        "cc::Protocol; fails unless every transaction commits and the "
        "protocol's abort counters account for every restart, and "
        "asserts the Transaction Manager's pooled in-flight slots stay "
        "bounded by concurrency.  Protocol knobs: "
        "--transactions=N transactions per synthetic user, "
        "--replications=N timed trials per protocol.  Model parameters "
        "are not used.";
    s.system_config_used = false;
    s.run = RunMicroCcScenario;
    Register(std::move(s));
  }
}

// --- Trace subsystem ---------------------------------------------------------

void RegisterTraceScenarios() {
  {
    Scenario s;
    s.name = "trace_mrc";
    s.title = "Trace: record once, exact LRU MRC in one pass";
    s.description =
        "Records one fixed-seed VOODB simulation run as an access trace, "
        "verifies a replay reproduces the recorded "
        "hit/miss/eviction/write-back counters bit-exactly, then runs the "
        "one-pass Mattson stack-distance analysis: the exact LRU "
        "hit-ratio curve for every cache size, the working-set size, "
        "reuse distances and per-class access skew.  --set trace_path=... "
        "chooses the trace file (default trace_mrc.vtrc).";
    s.base.workload = FigureWorkload(50, 20000);
    s.base.system.system_class = core::SystemClass::kCentralized;
    s.base.system.buffer_pages = 1200;
    s.run = RunTraceMrcScenario;
    Register(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig08_mrc";
    s.title = "Figure 8's cache-size curve from one trace pass";
    s.description =
        "Computes Figure 8's entire hit curve from ONE recorded O2 run: "
        "a single Mattson pass yields the exact LRU hit count at every "
        "swept cache size, cross-checked for exact equality against a "
        "full buffer-manager replay AND a fresh emulator simulation per "
        "size (the scenario fails on any divergence), and reports the "
        "MRC-vs-N-simulations speedup.";
    s.base.workload = FigureWorkload(50, 20000);
    s.base.system = core::SystemCatalog::O2WithCache(16.0);
    s.swept = {"buffer_pages"};
    s.system_config_used = false;  // runs the O2 emulator only
    s.run = RunFig08MrcScenario;
    Register(std::move(s));
  }
}

void RegisterAll() {
  RegisterInstanceFigure(
      "fig06", exp::EmulatorKind::kO2, 20, "Figure 6: O2, NC=20, I/Os vs NO",
      "Mean number of I/Os depending on the number of instances "
      "(500..20000) on a 20-class schema; the O2 page server with a 16 MB "
      "server cache vs its VOODB simulation.",
      {260, 480, 840, 1600, 2700, 4300}, {230, 450, 800, 1500, 2500, 4000});
  RegisterInstanceFigure(
      "fig07", exp::EmulatorKind::kO2, 50, "Figure 7: O2, NC=50, I/Os vs NO",
      "Mean number of I/Os depending on the number of instances "
      "(500..20000) on a 50-class schema; the O2 page server with a 16 MB "
      "server cache vs its VOODB simulation.",
      {420, 800, 1450, 2700, 4200, 6400}, {380, 740, 1350, 2500, 3900, 6000});
  RegisterMemoryFigure(
      "fig08", exp::EmulatorKind::kO2, "Figure 8: O2, I/Os vs cache size (MB)",
      "Mean number of I/Os depending on the server cache size (8..64 MB) "
      "on the NC=50 / NO=20000 base (25.0 MiB in O2): linear degradation "
      "once the base outgrows the cache.",
      {52000, 45000, 38000, 26000, 15000, 7000},
      {50000, 43000, 36000, 24000, 14000, 6500});
  RegisterInstanceFigure(
      "fig09", exp::EmulatorKind::kTexas, 20,
      "Figure 9: Texas, NC=20, I/Os vs NO",
      "Mean number of I/Os depending on the number of instances "
      "(500..20000) on a 20-class schema; the Texas persistent store on a "
      "64 MB host vs its VOODB simulation.",
      {150, 280, 500, 950, 1600, 2400}, {140, 260, 470, 900, 1500, 2300});
  RegisterInstanceFigure(
      "fig10", exp::EmulatorKind::kTexas, 50,
      "Figure 10: Texas, NC=50, I/Os vs NO",
      "Mean number of I/Os depending on the number of instances "
      "(500..20000) on a 50-class schema; the Texas persistent store on a "
      "64 MB host vs its VOODB simulation.",
      {280, 520, 950, 1900, 3100, 4700}, {260, 490, 900, 1800, 2900, 4500});
  RegisterMemoryFigure(
      "fig11", exp::EmulatorKind::kTexas,
      "Figure 11: Texas, I/Os vs main memory (MB)",
      "Mean number of I/Os depending on the host main memory (8..64 MB) "
      "on the NC=50 / NO=20000 base (18.4 MiB in Texas): *exponential* "
      "degradation under memory pressure driven by Texas' "
      "reserve-on-swizzle object loading policy, unlike the linear O2 "
      "curve of Figure 8.",
      {103000, 55000, 30000, 13000, 7000, 5000},
      {100000, 52000, 28000, 12000, 6500, 5000});
  RegisterDstcTable(
      "table6", 64.0,
      "Table 6: Effects of DSTC on the performances (mean number of I/Os)"
      " - mid-sized base",
      "Effects of DSTC on Texas, mid-sized base (NC=50, NO=20000, 64 MB "
      "memory).  The Benchmark column runs the Texas emulator, whose "
      "physical OIDs force a full database scan plus reference patching "
      "during reorganization; the Simulation column runs VOODB with "
      "logical OIDs — the paper analyses exactly this asymmetry.",
      {{"Pre-clustering usage", "pre_ios", "1890.70", "1878.80",
        "1.0063"},
       {"Clustering overhead", "overhead_ios", "12799.60",
        "354.50", "36.1060"},
       {"Post-clustering usage", "post_ios", "330.60", "350.50",
        "0.9432"},
       {"Gain", "gain", "5.71", "5.36", "1.0652"}},
      "Reproduction targets: usage rows bench~sim (ratio ~1); overhead "
      "bench >> sim (physical vs logical OIDs); gain substantially > 1.");
  RegisterDstcTable(
      "table7", 64.0, "Table 7: DSTC clustering",
      "DSTC clustering statistics — number of clusters built and mean "
      "objects per cluster, real system (emulator) vs simulation.",
      {{"Mean number of clusters", "clusters", "82.23",
        "84.01", "0.9788"},
       {"Mean number of obj./clust.", "cluster_size", "12.83",
        "13.73", "0.9344"}},
      "Reproduction target: benchmark and simulation agree (ratio ~1), "
      "demonstrating the simulated Clustering Manager behaves like the "
      "real module.");
  RegisterDstcTable(
      "table8", 8.0,
      "Table 8: Effects of DSTC on the performances (mean number of I/Os)"
      " - 'large' base",
      "Effects of DSTC on Texas with main memory reduced from 64 MB to "
      "8 MB so the base no longer fits: the clustering gain rises "
      "dramatically (paper: from ~5.7 to ~29.5) because under memory "
      "pressure unclustered pages are evicted almost immediately.",
      {{"Pre-clustering usage", "pre_ios", "12504.60", "12547.80",
        "0.9965"},
       {"Post-clustering usage", "post_ios", "424.30", "441.50",
        "0.9610"},
       {"Gain", "gain", "29.47", "28.42", "1.0369"}},
      "Reproduction targets: bench~sim on every row; gain far larger than "
      "the mid-sized case of Table 6.");
  RegisterAblationBufferPolicy();
  RegisterAblationClustering();
  RegisterAblationFailures();
  RegisterAblationLocking();
  RegisterAblationMultiprog();
  RegisterAblationPlacement();
  RegisterAblationSysclass();
  RegisterAblationVmModel();
  RegisterShardScale();
  RegisterCcAbyss();
  RegisterYcsbZipf();
  RegisterMicroBenches();
  RegisterTraceScenarios();
}

}  // namespace

void RegisterBenchScenarios() {
  static const bool registered = [] {
    RegisterAll();
    return true;
  }();
  (void)registered;
}

}  // namespace voodb::bench

/// \file parallel_sweep.cpp
/// \brief The experiment farm in ~60 lines: build a 3×3 list of cells
/// over VOODB parameters by their `--set` names and run every (cell ×
/// replication) work item concurrently on all cores.
///
/// `exp::RunCells` runs the cells as the points of one `exp::RunGrid`,
/// which is bit-deterministic: rerun this with --threads=1 and the table
/// is identical, digit for digit (same seeds, same ordered reduction —
/// see src/exp/farm.hpp).  For machine-readable results,
/// run a scenario: `voodb run <scenario> --json=PATH`.
///
/// Build & run:
///   cmake -B build -S . && cmake --build build -j
///   ./build/parallel_sweep [--threads=N] [--replications=N]
#include <iostream>
#include <string>
#include <vector>

#include "exp/executor.hpp"
#include "exp/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "voodb/param_registry.hpp"

int main(int argc, char** argv) {
  using namespace voodb;

  util::CliArgs args(argc, argv);
  exp::ScenarioOptions options;
  options.threads = static_cast<size_t>(args.GetInt("threads", 0));
  options.replications =
      static_cast<uint64_t>(args.GetInt("replications", 10));
  args.RejectUnknown();

  // 1. The experiment every cell shares: a centralized system under the
  //    OCB mixed workload (shrunk base for a fast demo).
  core::ExperimentConfig ec;
  ec.system.system_class = core::SystemClass::kCentralized;
  ec.workload.num_classes = 20;
  ec.workload.num_objects = 5000;

  // 2. The sweep: buffer size × multiprogramming level, by name, each
  //    value in its `--set` spelling; 300 measured transactions a cell.
  std::vector<exp::Cell> cells;
  for (const char* pages : {"120", "500", "2000"}) {
    for (const char* level : {"1", "4", "8"}) {
      exp::Cell cell{std::string("buffer_pages=") + pages +
                         " multiprogramming_level=" + level,
                     ec, 300};
      const core::ParamTarget target{&cell.config.system,
                                     &cell.config.workload};
      core::ParamRegistry::Instance().Set(target, "buffer_pages", pages);
      core::ParamRegistry::Instance().Set(target, "multiprogramming_level",
                                          level);
      cells.push_back(std::move(cell));
    }
  }

  // 3. Run all 9 cells × replications work items on one thread pool.
  std::cout << "Running " << cells.size() << " cells x "
            << options.replications << " replications on "
            << (options.threads == 0 ? exp::ThreadPool::HardwareThreads()
                                     : options.threads)
            << " threads...\n";
  const std::vector<exp::CellResult> results =
      exp::RunCells(std::move(cells), options);

  // 4. The summary.
  util::TextTable table(
      {"Cell", "Mean I/Os", "±CI", "Hit rate", "Resp (ms)"});
  for (const auto& [cell, result] : results) {
    const desp::ConfidenceInterval ci = result.Interval("total_ios");
    table.AddRow({cell.label, util::FormatDouble(ci.mean, 1),
                  util::FormatDouble(ci.half_width, 1),
                  util::FormatDouble(result.Metric("hit_rate").mean(), 3),
                  util::FormatDouble(
                      result.Metric("mean_response_ms").mean(), 2)});
  }
  table.Print(std::cout);
  return 0;
}

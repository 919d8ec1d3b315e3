/// \file sweeps.hpp
/// \brief The actual experiment sweeps behind each figure/table scenario.
///
/// Every function takes the workload and simulation config from the
/// caller (the scenario catalog resolves them, including `--set`
/// overrides) instead of hard-wiring them, and returns the measured
/// estimates so parity tests and the driver can compare runs without
/// scraping stdout.  Printing and BENCH_<name>.json recording still
/// happen inside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ocb/parameters.hpp"
#include "voodb/config.hpp"

namespace voodb::bench {

/// Which validated system a sweep targets.
enum class TargetSystem { kO2, kTexas };

/// One evaluated sweep point: the x label plus the replicated estimates
/// of both series.
struct FigurePoint {
  std::string x;
  Estimate bench;  ///< direct-execution emulator
  Estimate sim;    ///< VOODB discrete-event model
};

/// The six NO points of Figures 6/7/9/10.
const std::vector<double>& InstancePoints();
/// The six memory points (MB) of Figures 8/11.
const std::vector<double>& MemoryPoints();

/// Figures 6/7 (O2) and 9/10 (Texas): mean number of I/Os as the number
/// of instances NO varies for a fixed schema.  `workload` is the
/// template whose `num_objects` is overridden per point; `sim_config` is
/// the simulated system; `memory_mb` feeds the emulator.  `paper_bench`
/// / `paper_sim` carry the paper's series for the points.
std::vector<FigurePoint> RunInstanceSweep(
    const exp::ScenarioOptions& options, TargetSystem system,
    const ocb::OcbParameters& workload, double memory_mb,
    const core::VoodbConfig& sim_config,
    const std::vector<double>& instance_points, const char* title,
    const std::vector<double>& paper_bench,
    const std::vector<double>& paper_sim);

/// Figure 8 (O2 cache size) and Figure 11 (Texas main memory): mean
/// number of I/Os as the memory budget varies on a fixed base.
/// `sim_base`'s buffer is rescaled per point via the system catalog.
std::vector<FigurePoint> RunMemorySweep(
    const exp::ScenarioOptions& options, TargetSystem system,
    const ocb::OcbParameters& workload, const core::VoodbConfig& sim_base,
    const std::vector<double>& memory_points, const char* title,
    const std::vector<double>& paper_bench,
    const std::vector<double>& paper_sim);

/// Tables 6-8: the DSTC experiment.  Runs pure depth-3 hierarchy
/// traversals over a hot set of roots, triggers DSTC, and measures
/// pre-clustering usage, clustering overhead, post-clustering usage and
/// cluster statistics on both the Texas emulator (physical OIDs) and the
/// VOODB simulation (logical OIDs).
struct DstcAggregate {
  Estimate pre;
  Estimate overhead;
  Estimate post;
  Estimate gain;
  Estimate clusters;
  Estimate cluster_size;
};

struct DstcComparison {
  DstcAggregate bench;
  DstcAggregate sim;
};

/// \param memory_mb 64 for the mid-size experiment (Tables 6/7), 8 for
///   the "large" one (Table 8).
DstcComparison RunDstcExperiment(const exp::ScenarioOptions& options,
                                 double memory_mb,
                                 const ocb::OcbParameters& workload,
                                 const core::VoodbConfig& sim_base);

}  // namespace voodb::bench

/// \file test_experiment.cpp
/// \brief Tests for a replicated VOODB experiment, run as a cell: every
/// replication observes the cell metrics, results are deterministic in
/// the base seed and vary across replications, COLDN warms the system,
/// and the CLUSTP factory is called once per replication.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/dstc.hpp"
#include "exp/scenario.hpp"
#include "util/check.hpp"

namespace voodb::exp {
namespace {

Cell SmallCell() {
  core::ExperimentConfig ec;
  ec.system.system_class = core::SystemClass::kCentralized;
  ec.system.page_size = 1024;
  ec.system.buffer_pages = 16;
  ec.system.multiprogramming_level = 1;
  ec.workload.num_classes = 8;
  ec.workload.num_objects = 300;
  ec.workload.max_refs_per_class = 3;
  ec.workload.base_instance_size = 60;
  ec.workload.cold_transactions = 10;
  ec.workload.seed = 71;
  return Cell{"small", ec, /*transactions=*/40};
}

ScenarioOptions FiveReplications() {
  ScenarioOptions options;
  options.replications = 5;
  options.seed = 42;
  options.threads = 1;
  return options;
}

desp::ReplicationResult RunCell(const Cell& cell,
                                const ScenarioOptions& options) {
  return RunCells({cell}, options).front().result;
}

double MeanTotalIos(const Cell& cell, const ScenarioOptions& options) {
  return RunCell(cell, options).Metric("total_ios").mean();
}

TEST(Experiment, RunsAllReplicationsAndMetrics) {
  const desp::ReplicationResult result =
      RunCell(SmallCell(), FiveReplications());
  EXPECT_EQ(result.replications(), 5u);
  for (const char* metric :
       {"total_ios", "hit_rate", "network_mb", "mean_response_ms",
        "throughput_tps", "sim_s", "abort_rate", "p99_ms"}) {
    EXPECT_TRUE(result.HasMetric(metric)) << metric;
    EXPECT_EQ(result.Metric(metric).count(), 5u) << metric;
  }
  EXPECT_GT(result.Metric("total_ios").mean(), 0.0);
  EXPECT_GT(result.Metric("hit_rate").mean(), 0.0);
  EXPECT_LE(result.Metric("hit_rate").max(), 1.0);
}

TEST(Experiment, DeterministicInBaseSeed) {
  const double a = MeanTotalIos(SmallCell(), FiveReplications());
  const double b = MeanTotalIos(SmallCell(), FiveReplications());
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Experiment, DifferentBaseSeedsVary) {
  ScenarioOptions options = FiveReplications();
  const double a = MeanTotalIos(SmallCell(), options);
  options.seed = options.seed + 1;
  const double b = MeanTotalIos(SmallCell(), options);
  EXPECT_NE(a, b);
}

TEST(Experiment, ReplicationsActuallyVary) {
  // With nontrivial workload randomness, per-replication totals differ,
  // so the CI has positive width.
  const desp::ReplicationResult result =
      RunCell(SmallCell(), FiveReplications());
  EXPECT_GT(result.Metric("total_ios").stddev(), 0.0);
  const desp::ConfidenceInterval ci = result.Interval("total_ios");
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_TRUE(ci.Contains(result.Metric("total_ios").mean()));
}

TEST(Experiment, RunOnBaseMatchesRun) {
  // Cells with equal workloads run on one shared object base; a cell run
  // beside another on the shared base equals the cell run on its own.
  Cell other = SmallCell();
  other.label = "other";
  other.config.system.buffer_pages = 64;
  const std::vector<CellResult> shared =
      RunCells({other, SmallCell()}, FiveReplications());
  const double via_run = MeanTotalIos(SmallCell(), FiveReplications());
  EXPECT_DOUBLE_EQ(shared[1].result.Metric("total_ios").mean(), via_run);
}

TEST(Experiment, ColdRunWarmsTheBuffer) {
  Cell cold = SmallCell();
  cold.config.system.buffer_pages = 256;  // everything fits
  Cell no_cold = cold;
  no_cold.config.workload.cold_transactions = 0;
  // With a cold run first, the measured phase starts warm and pays fewer
  // I/Os.
  EXPECT_LT(MeanTotalIos(cold, FiveReplications()),
            MeanTotalIos(no_cold, FiveReplications()));
}

TEST(Experiment, ClusteringFactoryIsUsed) {
  Cell cell = SmallCell();
  core::ExperimentConfig& ec = cell.config;
  ec.workload.root_region = 4;
  ec.workload.p_set = 0.0;
  ec.workload.p_simple = 0.0;
  ec.workload.p_hierarchy = 1.0;
  ec.workload.p_stochastic = 0.0;
  ec.system.auto_clustering = true;
  ec.system.clustering_stat_cpu_ms = 0.01;
  int created = 0;
  ec.make_policy = [&created]() -> std::unique_ptr<cluster::ClusteringPolicy> {
    ++created;
    cluster::DstcParameters dp;
    dp.observation_period = 10;
    return std::make_unique<cluster::DstcPolicy>(dp);
  };
  RunCell(cell, FiveReplications());
  EXPECT_EQ(created, 5);  // one policy per replication
}

TEST(Experiment, RejectsZeroReplications) {
  ScenarioOptions options = FiveReplications();
  options.replications = 0;
  EXPECT_THROW(RunCell(SmallCell(), options), util::Error);
}

}  // namespace
}  // namespace voodb::exp

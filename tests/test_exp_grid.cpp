/// \file test_exp_grid.cpp
/// \brief Tests for cartesian sweep grids and the grid runner.
#include <gtest/gtest.h>

#include <vector>

#include "desp/random.hpp"
#include "exp/grid.hpp"
#include "util/check.hpp"

namespace voodb::exp {
namespace {

TEST(SweepGrid, EnumeratesCartesianProductRowMajor) {
  SweepGrid grid;
  grid.Axis("a", {1, 2}).Axis("b", {10, 20, 30});
  EXPECT_EQ(grid.NumAxes(), 2u);
  EXPECT_EQ(grid.NumPoints(), 6u);
  // First axis slowest: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
  const std::vector<GridPoint> points = grid.Points();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_DOUBLE_EQ(points[0].Get("a"), 1.0);
  EXPECT_DOUBLE_EQ(points[0].Get("b"), 10.0);
  EXPECT_DOUBLE_EQ(points[2].Get("a"), 1.0);
  EXPECT_DOUBLE_EQ(points[2].Get("b"), 30.0);
  EXPECT_DOUBLE_EQ(points[3].Get("a"), 2.0);
  EXPECT_DOUBLE_EQ(points[3].Get("b"), 10.0);
  EXPECT_DOUBLE_EQ(points[5].Get("b"), 30.0);
  EXPECT_EQ(points[4].index, 4u);
  EXPECT_EQ(points[1].Label(), "a=1 b=20");
}

TEST(SweepGrid, AxislessGridHasOneEmptyPoint) {
  const SweepGrid grid;
  EXPECT_EQ(grid.NumPoints(), 1u);
  EXPECT_TRUE(grid.Point(0).coords.empty());
  EXPECT_THROW(grid.Point(1), util::Error);
}

TEST(SweepGrid, RejectsBadAxes) {
  SweepGrid grid;
  grid.Axis("a", {1});
  EXPECT_THROW(grid.Axis("a", {2}), util::Error);  // duplicate name
  EXPECT_THROW(grid.Axis("b", {}), util::Error);   // empty values
  EXPECT_THROW(grid.Axis("", {1}), util::Error);   // empty name
  EXPECT_THROW(grid.Point(1).Get("nope"), util::Error);
}

TEST(GridPoint, GetAndHas) {
  SweepGrid grid;
  grid.Axis("x", {5});
  const GridPoint p = grid.Point(0);
  EXPECT_TRUE(p.Has("x"));
  EXPECT_FALSE(p.Has("y"));
  EXPECT_DOUBLE_EQ(p.Get("x"), 5.0);
  EXPECT_THROW(p.Get("y"), util::Error);
}

ReplicationFarm::Model ScaledModel(double scale) {
  return [scale](uint64_t seed, desp::MetricSink& sink) {
    desp::RandomStream rng(seed);
    sink.Observe("v", scale * rng.Uniform(1.0, 2.0));
  };
}

TEST(RunGrid, CellsMatchStandaloneFarmRuns) {
  // Common random numbers: every cell uses the same seed chain, so a cell
  // must reproduce a standalone farm run of its model bit for bit.
  SweepGrid grid;
  grid.Axis("scale", {1, 10, 100});
  FarmOptions options;
  options.threads = 4;
  options.base_seed = 77;
  const std::vector<GridCell> cells = RunGrid(
      grid, [](const GridPoint& p) { return ScaledModel(p.Get("scale")); },
      20, options);
  ASSERT_EQ(cells.size(), 3u);
  for (const GridCell& cell : cells) {
    FarmOptions solo;
    solo.threads = 1;
    solo.base_seed = 77;
    const desp::ReplicationResult standalone =
        ReplicationFarm(ScaledModel(cell.point.Get("scale")), solo).Run(20);
    EXPECT_EQ(cell.result.replications(), standalone.replications());
    EXPECT_EQ(cell.result.Metric("v").mean(), standalone.Metric("v").mean());
    EXPECT_EQ(cell.result.Metric("v").variance(),
              standalone.Metric("v").variance());
  }
}

TEST(RunGrid, ThreadCountInvariant) {
  SweepGrid grid;
  grid.Axis("scale", {1, 3}).Axis("unused", {0, 1});
  auto run = [&grid](size_t threads) {
    FarmOptions options;
    options.threads = threads;
    options.base_seed = 5;
    return RunGrid(
        grid, [](const GridPoint& p) { return ScaledModel(p.Get("scale")); },
        15, options);
  };
  const std::vector<GridCell> serial = run(1);
  const std::vector<GridCell> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.Metric("v").mean(),
              parallel[i].result.Metric("v").mean());
    EXPECT_EQ(serial[i].result.Metric("v").variance(),
              parallel[i].result.Metric("v").variance());
  }
}

TEST(ApplyAxisTest, BindsKnownAxesAndRejectsUnknown) {
  core::ExperimentConfig config;
  ApplyAxis(config, "buffer_pages", 256);
  ApplyAxis(config, "multiprogramming_level", 4);
  ApplyAxis(config, "num_objects", 1000);
  ApplyAxis(config, "think_time_ms", 2.5);
  ApplyAxis(config, "cc_protocol", 4);
  EXPECT_EQ(config.system.buffer_pages, 256u);
  EXPECT_EQ(config.system.multiprogramming_level, 4u);
  EXPECT_EQ(config.workload.num_objects, 1000u);
  EXPECT_DOUBLE_EQ(config.workload.think_time_ms, 2.5);
  EXPECT_EQ(config.system.cc_protocol, cc::ProtocolKind::kOcc);
  EXPECT_THROW(ApplyAxis(config, "no_such_axis", 1.0), util::Error);
  EXPECT_THROW(ApplyAxis(config, "cc_protocol", 5.0), util::Error);
  EXPECT_FALSE(IsWorkloadAxis("cc_protocol"));
  // Integral fields reject fractional or negative sweep values.
  EXPECT_THROW(ApplyAxis(config, "buffer_pages", 0.5), util::Error);
  EXPECT_THROW(ApplyAxis(config, "buffer_pages", -1.0), util::Error);
  EXPECT_TRUE(IsWorkloadAxis("num_objects"));
  EXPECT_FALSE(IsWorkloadAxis("buffer_pages"));
}

TEST(RunExperimentGrid, RunsFullExperimentsPerCell) {
  core::ExperimentConfig ec;
  ec.system.system_class = core::SystemClass::kCentralized;
  ec.system.page_size = 1024;
  ec.workload.num_classes = 8;
  ec.workload.num_objects = 300;
  ec.workload.max_refs_per_class = 3;
  ec.workload.base_instance_size = 60;
  ec.workload.hot_transactions = 20;
  ec.workload.seed = 71;
  ec.replications = 4;

  SweepGrid grid;
  grid.Axis("buffer_pages", {8, 64});
  const std::vector<GridCell> cells = RunExperimentGrid(ec, grid, 4);
  ASSERT_EQ(cells.size(), 2u);
  for (const GridCell& cell : cells) {
    EXPECT_EQ(cell.result.replications(), 4u);
    EXPECT_GT(cell.result.Metric("total_ios").mean(), 0.0);
  }
  // More buffer never costs I/Os on an identical workload.
  EXPECT_GE(cells[0].result.Metric("total_ios").mean(),
            cells[1].result.Metric("total_ios").mean());
  // A cell whose axis value equals the base config reproduces RunOnBase.
  core::ExperimentConfig direct = ec;
  direct.system.buffer_pages = 8;
  direct.threads = 1;
  const desp::ReplicationResult expected = core::Experiment::Run(direct);
  EXPECT_EQ(cells[0].result.Metric("total_ios").mean(),
            expected.Metric("total_ios").mean());
}

}  // namespace
}  // namespace voodb::exp

/// \file test_exp_grid.cpp
/// \brief Tests for the grid runner and the cell runner on top of it: a
/// point (a cell) is bit-identical to a one-point grid of its model, at
/// any thread count, and a cell's COLDN warm-up runs before its reported
/// phase.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "desp/random.hpp"
#include "emu/o2_emulator.hpp"
#include "exp/farm.hpp"
#include "exp/scenario.hpp"
#include "ocb/workload.hpp"
#include "util/check.hpp"
#include "voodb/param_registry.hpp"
#include "voodb/system.hpp"

namespace voodb::exp {
namespace {

Model ScaledModel(double scale) {
  return [scale](uint64_t seed, desp::MetricSink& sink) {
    desp::RandomStream rng(seed);
    sink.Observe("v", scale * rng.Uniform(1.0, 2.0));
  };
}

const double kScales[] = {1, 10, 100};

/// `n` serial replications of `model` with `base_seed`: a one-point grid.
desp::ReplicationResult RunAlone(const Model& model, uint64_t base_seed,
                                 uint64_t n) {
  FarmOptions solo;
  solo.threads = 1;
  solo.base_seed = base_seed;
  return RunGrid(1, [&](size_t) { return model; }, n, solo).front();
}

TEST(RunGrid, CellsMatchStandaloneFarmRuns) {
  // Common random numbers: every point uses the same seed chain, so a
  // point must reproduce a one-point run of its model bit for bit.
  FarmOptions options;
  options.threads = 4;
  options.base_seed = 77;
  const std::vector<desp::ReplicationResult> results = RunGrid(
      3, [](size_t p) { return ScaledModel(kScales[p]); }, 20, options);
  ASSERT_EQ(results.size(), 3u);
  for (size_t p = 0; p < results.size(); ++p) {
    const desp::ReplicationResult standalone =
        RunAlone(ScaledModel(kScales[p]), 77, 20);
    EXPECT_EQ(results[p].replications(), standalone.replications());
    EXPECT_EQ(results[p].Metric("v").mean(), standalone.Metric("v").mean());
    EXPECT_EQ(results[p].Metric("v").variance(),
              standalone.Metric("v").variance());
  }
}

TEST(RunGrid, ThreadCountInvariant) {
  auto run = [](size_t threads) {
    FarmOptions options;
    options.threads = threads;
    options.base_seed = 5;
    return RunGrid(
        4, [](size_t p) { return ScaledModel(1.0 + 2.0 * (p / 2)); }, 15,
        options);
  };
  const std::vector<desp::ReplicationResult> serial = run(1);
  const std::vector<desp::ReplicationResult> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].Metric("v").mean(), parallel[i].Metric("v").mean());
    EXPECT_EQ(serial[i].Metric("v").variance(),
              parallel[i].Metric("v").variance());
  }
}

core::ExperimentConfig SmallConfig() {
  core::ExperimentConfig ec;
  ec.system.system_class = core::SystemClass::kCentralized;
  ec.system.page_size = 1024;
  ec.workload.num_classes = 8;
  ec.workload.num_objects = 300;
  ec.workload.max_refs_per_class = 3;
  ec.workload.base_instance_size = 60;
  ec.workload.seed = 71;
  return ec;
}

/// `config` with registry parameter `name` set to `value` (its `--set`
/// spelling), as a cell of `transactions`.
Cell CellWith(const core::ExperimentConfig& config, const std::string& name,
              const std::string& value, uint64_t transactions) {
  Cell cell{name + "=" + value, config, transactions};
  core::ParamRegistry::Instance().Set(
      core::ParamTarget{&cell.config.system, &cell.config.workload}, name,
      value);
  return cell;
}

/// A cell replication's simulation, built by hand: a VoodbSystem from the
/// cell's config, its workload from `RandomStream(seed).Derive(1)`, COLDN
/// unmeasured, then the measured transactions.
core::PhaseMetrics HandRun(const Cell& cell, const ocb::ObjectBase& base,
                           uint64_t seed) {
  core::VoodbSystem sys(cell.config.system, &base, nullptr, seed);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed).Derive(1));
  if (cell.config.workload.cold_transactions > 0) {
    sys.RunTransactions(gen, cell.config.workload.cold_transactions);
  }
  return sys.RunTransactions(gen, cell.transactions);
}

TEST(RunCells, CellEqualsStandaloneFarmRunOfItsModel) {
  const core::ExperimentConfig config = SmallConfig();
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(config.workload);
  std::vector<Cell> cells = {CellWith(config, "buffer_pages", "8", 20),
                             CellWith(config, "buffer_pages", "64", 20)};
  ScenarioOptions options;
  options.replications = 4;
  options.seed = 42;
  options.threads = 4;
  const std::vector<CellResult> results = RunCells(cells, options);
  ASSERT_EQ(results.size(), 2u);
  for (size_t c = 0; c < results.size(); ++c) {
    const desp::ReplicationResult& got = results[c].result;
    EXPECT_EQ(results[c].cell.label, cells[c].label);
    EXPECT_EQ(got.replications(), 4u);
    EXPECT_GT(got.Metric("total_ios").mean(), 0.0);
    // The cell's model, run on its own with the run's seed.
    const Cell& cell = cells[c];
    const desp::ReplicationResult want = RunAlone(
        [&](uint64_t seed, desp::MetricSink& sink) {
          const core::PhaseMetrics m = HandRun(cell, base, seed);
          sink.Observe("total_ios", static_cast<double>(m.total_ios));
          sink.Observe("hit_rate", m.HitRate());
          sink.Observe("mean_response_ms", m.mean_response_ms);
          sink.Observe("throughput_tps", m.ThroughputTps());
        },
        options.seed, options.replications);
    for (const std::string& metric : want.MetricNames()) {
      EXPECT_EQ(got.Metric(metric).mean(), want.Metric(metric).mean())
          << cell.label << " " << metric;
      EXPECT_EQ(got.Metric(metric).variance(),
                want.Metric(metric).variance())
          << cell.label << " " << metric;
    }
  }
  // More buffer never costs I/Os on an identical workload.
  EXPECT_GE(results[0].result.Metric("total_ios").mean(),
            results[1].result.Metric("total_ios").mean());
}

TEST(RunCells, ColdTransactionsRunBeforeTheReportedPhase) {
  // COLDN warms the simulation and the emulator leg up, unmeasured, from
  // the streams the measured transactions then continue.
  core::ExperimentConfig config = SmallConfig();
  config.system.buffer_pages = 16;
  config.workload.cold_transactions = 30;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(config.workload);
  Cell cell{"cold", config, 25};
  cell.emulator = EmulatorKind::kO2;
  cell.emulator_mb = 0.02;
  ScenarioOptions options;
  options.replications = 1;
  options.seed = 42;
  options.threads = 1;
  const desp::ReplicationResult got = RunCells({cell}, options)[0].result;
  const uint64_t seed = DeriveSeeds(options.seed, 1)[0];

  const core::PhaseMetrics want = HandRun(cell, base, seed);
  EXPECT_EQ(got.Metric("total_ios").mean(),
            static_cast<double>(want.total_ios));
  EXPECT_EQ(got.Metric("mean_response_ms").mean(), want.mean_response_ms);
  EXPECT_EQ(got.Metric("sim_s").mean(), want.sim_time_ms / 1000.0);

  emu::O2Config o2_config;
  o2_config.cache_pages = static_cast<uint64_t>(
      cell.emulator_mb * 1024 * 1024 / o2_config.page_size);
  emu::O2Emulator o2(o2_config, &base, seed);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(seed));
  o2.RunTransactions(gen, config.workload.cold_transactions);
  EXPECT_EQ(got.Metric("emu_total_ios").mean(),
            static_cast<double>(o2.RunTransactions(gen, 25).total_ios));
}

}  // namespace
}  // namespace voodb::exp

/// \file test_exp_farm.cpp
/// \brief Determinism and correctness tests for the replication engine
/// (`RunGrid`, `RunToPrecision`): same base seed ⇒ bit-identical results
/// at any thread count, on both synthetic models and full VOODB
/// experiments.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "desp/histogram.hpp"
#include "desp/random.hpp"
#include "exp/farm.hpp"
#include "exp/scenario.hpp"
#include "util/check.hpp"

namespace voodb::exp {
namespace {

/// Asserts every metric of `a` and `b` is bitwise identical (count, mean,
/// variance, min, max) — no tolerance anywhere.
void ExpectBitIdentical(const desp::ReplicationResult& a,
                        const desp::ReplicationResult& b) {
  ASSERT_EQ(a.replications(), b.replications());
  const std::vector<std::string> names = a.MetricNames();
  ASSERT_EQ(names, b.MetricNames());
  for (const std::string& name : names) {
    const desp::Tally& ta = a.Metric(name);
    const desp::Tally& tb = b.Metric(name);
    EXPECT_EQ(ta.count(), tb.count()) << name;
    EXPECT_EQ(ta.mean(), tb.mean()) << name;
    EXPECT_EQ(ta.variance(), tb.variance()) << name;
    EXPECT_EQ(ta.min(), tb.min()) << name;
    EXPECT_EQ(ta.max(), tb.max()) << name;
  }
}

/// `n` replications of `model` on `threads` workers: a one-point grid.
desp::ReplicationResult RunOne(const Model& model, size_t threads,
                               uint64_t base_seed, uint64_t n) {
  FarmOptions options;
  options.threads = threads;
  options.base_seed = base_seed;
  return RunGrid(1, [&](size_t) { return model; }, n, options).front();
}

/// A model with real floating-point work and several metrics; the value
/// depends only on the seed, as the farm contract requires.
void NoisyModel(uint64_t seed, desp::MetricSink& sink) {
  desp::RandomStream rng(seed);
  double acc = 0.0;
  for (int i = 0; i < 200; ++i) acc += rng.Exponential(3.0);
  sink.Observe("sum", acc);
  sink.Observe("normal", rng.Normal(10.0, 2.0));
  sink.Observe("uniform", rng.Uniform(-1.0, 1.0));
}

/// NoisyModel plus percentiles of a per-replication latency
/// distribution, estimated once per replication as the scenarios do.
void HistogramModel(uint64_t seed, desp::MetricSink& sink) {
  NoisyModel(seed, sink);
  desp::RandomStream rng(seed ^ 0xD157);
  desp::LogHistogram latency;
  for (int i = 0; i < 300; ++i) latency.Add(rng.Exponential(25.0));
  sink.Observe("latency_p50_ms", latency.Quantile(0.5));
  sink.Observe("latency_p99_ms", latency.Quantile(0.99));
  sink.Observe("latency_max_ms", latency.max());
}

TEST(ReplicationFarm, SeedChainMatchesSerialDerivation) {
  uint64_t sm = 1234;
  std::vector<uint64_t> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(desp::SplitMix64(sm));
  EXPECT_EQ(DeriveSeeds(1234, 10), expected);
}

TEST(ReplicationFarm, BitIdenticalAcrossThreadCounts) {
  const desp::ReplicationResult serial = RunOne(NoisyModel, 1, 99, 100);
  for (const size_t threads : {2u, 3u, 7u, 16u}) {
    ExpectBitIdentical(serial, RunOne(NoisyModel, threads, 99, 100));
  }
}

TEST(ReplicationFarm, MatchesSerialFarm) {
  // The acceptance bar of the subsystem: a 100-replication parallel run
  // reports exactly what a serial (threads = 1) run reports.
  ExpectBitIdentical(RunOne(NoisyModel, 1, 4242, 100),
                     RunOne(NoisyModel, 8, 4242, 100));
}

TEST(ReplicationFarm, FullVoodbExperimentIsThreadCountInvariant) {
  // Cross-layer determinism: an actual discrete-event simulation (buffer
  // manager, transactions, disk model) replicated serially and on the
  // farm must agree on every metric, bit for bit.
  Cell cell{"small", {}, /*transactions=*/30};
  core::ExperimentConfig& ec = cell.config;
  ec.system.system_class = core::SystemClass::kCentralized;
  ec.system.page_size = 1024;
  ec.system.buffer_pages = 16;
  ec.system.multiprogramming_level = 1;
  ec.workload.num_classes = 8;
  ec.workload.num_objects = 300;
  ec.workload.max_refs_per_class = 3;
  ec.workload.base_instance_size = 60;
  ec.workload.seed = 71;
  ScenarioOptions options;
  options.replications = 12;
  options.threads = 1;
  const desp::ReplicationResult serial =
      RunCells({cell}, options).front().result;
  options.threads = 6;
  const desp::ReplicationResult parallel =
      RunCells({cell}, options).front().result;
  ExpectBitIdentical(serial, parallel);
  EXPECT_GT(serial.Metric("total_ios").mean(), 0.0);
}

TEST(ReplicationFarm, RunToPrecisionMatchesSerialFarm) {
  auto model = [](uint64_t seed, desp::MetricSink& sink) {
    desp::RandomStream rng(seed);
    sink.Observe("x", rng.Uniform(9.0, 11.0));
  };
  FarmOptions options;
  options.threads = 1;
  options.base_seed = 7;
  const desp::ReplicationResult serial =
      RunToPrecision(model, options, "x", 0.05, 10, 200);
  options.threads = 4;
  const desp::ReplicationResult parallel =
      RunToPrecision(model, options, "x", 0.05, 10, 200);
  ExpectBitIdentical(serial, parallel);
}

TEST(ReplicationFarm, PropagatesModelExceptions) {
  const Model throwing = [](uint64_t seed, desp::MetricSink& sink) {
    if (seed % 3 == 0) throw util::Error("boom");
    sink.Observe("v", 1.0);
  };
  EXPECT_THROW(RunOne(throwing, 4, 42, 64), util::Error);
}

TEST(ReplicationFarm, RunsEachReplicationExactlyOnce) {
  std::atomic<int> calls{0};
  const desp::ReplicationResult result = RunOne(
      [&calls](uint64_t, desp::MetricSink& sink) {
        ++calls;
        sink.Observe("v", 1.0);
      },
      8, 42, 50);
  EXPECT_EQ(calls.load(), 50);
  EXPECT_EQ(result.replications(), 50u);
  EXPECT_EQ(result.Metric("v").count(), 50u);
}

TEST(ReplicationFarm, RejectsBadUsage) {
  FarmOptions options;
  options.threads = 2;
  EXPECT_THROW(RunGrid(1, nullptr, 10, options), util::Error);
  EXPECT_THROW(RunGrid(1, [](size_t) { return Model(); }, 10, options),
               util::Error);
  EXPECT_THROW(RunOne(NoisyModel, 2, 42, 0), util::Error);
  EXPECT_THROW(RunToPrecision(nullptr, options, "sum", 0.05), util::Error);
  EXPECT_THROW(RunToPrecision(NoisyModel, options, "sum", 0.0), util::Error);
}

// --- Tally::Merge as a parallel reduction operator -------------------------

desp::Tally TallyOf(const std::vector<double>& values) {
  desp::Tally t;
  for (const double v : values) t.Add(v);
  return t;
}

desp::Tally Merged(const desp::Tally& a, const desp::Tally& b) {
  desp::Tally out = a;
  out.Merge(b);
  return out;
}

void ExpectTallyNear(const desp::Tally& a, const desp::Tally& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());  // min/max/count are exact under any order
  EXPECT_EQ(a.max(), b.max());
  const double scale = std::abs(a.mean()) + 1.0;
  EXPECT_NEAR(a.mean(), b.mean(), 1e-12 * scale);
  const double vscale = a.variance() + 1.0;
  EXPECT_NEAR(a.variance(), b.variance(), 1e-9 * vscale);
}

TEST(TallyMerge, CommutativeAndAssociativeProperty) {
  // Property test over random partitions: Merge must behave as a
  // commutative, associative combiner (exactly for count/min/max, to
  // floating-point accuracy for mean/variance) and agree with adding all
  // observations into one tally.
  desp::RandomStream rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    auto draw = [&rng](int n) {
      std::vector<double> v;
      for (int i = 0; i < n; ++i) v.push_back(rng.Normal(50.0, 30.0));
      return v;
    };
    const std::vector<double> va = draw(1 + trial % 7);
    const std::vector<double> vb = draw(1 + (trial * 3) % 11);
    const std::vector<double> vc = draw(1 + (trial * 5) % 5);
    const desp::Tally a = TallyOf(va), b = TallyOf(vb), c = TallyOf(vc);

    ExpectTallyNear(Merged(a, b), Merged(b, a));
    ExpectTallyNear(Merged(Merged(a, b), c), Merged(a, Merged(b, c)));

    std::vector<double> all = va;
    all.insert(all.end(), vb.begin(), vb.end());
    all.insert(all.end(), vc.begin(), vc.end());
    ExpectTallyNear(Merged(Merged(a, b), c), TallyOf(all));
  }
}

TEST(TallyMerge, EmptySidesAreIdentity) {
  const desp::Tally some = TallyOf({1.0, 2.0, 3.0});
  const desp::Tally empty;
  const desp::Tally left = Merged(empty, some);
  const desp::Tally right = Merged(some, empty);
  EXPECT_EQ(left.count(), 3u);
  EXPECT_DOUBLE_EQ(left.mean(), some.mean());
  EXPECT_DOUBLE_EQ(left.variance(), some.variance());
  EXPECT_EQ(right.count(), 3u);
  EXPECT_DOUBLE_EQ(right.mean(), some.mean());
  EXPECT_DOUBLE_EQ(right.variance(), some.variance());
}

TEST(ReplicationFarm, HistogramsBitIdenticalAcrossThreadCounts) {
  // Per-replication percentiles — the source of every reported latency
  // series — must be bit-identical at any farm width, and vary across
  // replications (a real CI, not a zero half-width).
  const desp::ReplicationResult serial = RunOne(HistogramModel, 1, 321, 40);
  EXPECT_EQ(serial.Metric("latency_p99_ms").count(), 40u);
  EXPECT_GT(serial.Metric("latency_p99_ms").mean(),
            serial.Metric("latency_p50_ms").mean());
  EXPECT_GT(serial.Interval("latency_p99_ms").half_width, 0.0);
  for (const size_t threads : {2u, 5u, 16u}) {
    ExpectBitIdentical(serial, RunOne(HistogramModel, threads, 321, 40));
  }
}

TEST(ReplicationFarm, HistogramsMatchSerialFarm) {
  ExpectBitIdentical(RunOne(HistogramModel, 1, 777, 25),
                     RunOne(HistogramModel, 6, 777, 25));
}

TEST(ReplicationFarmReduce, OrderedReductionIsExact) {
  // Reduce() consumes per-replication observation maps in index order —
  // the very property that makes thread count irrelevant.
  std::vector<std::map<std::string, double>> obs(3);
  obs[0] = {{"m", 1.0}};
  obs[1] = {{"m", 2.0}};
  obs[2] = {{"m", 6.0}};
  const desp::ReplicationResult result = Reduce(obs);
  EXPECT_EQ(result.replications(), 3u);
  EXPECT_EQ(result.Metric("m").count(), 3u);
  EXPECT_DOUBLE_EQ(result.Metric("m").mean(), 3.0);
  EXPECT_DOUBLE_EQ(result.Metric("m").min(), 1.0);
  EXPECT_DOUBLE_EQ(result.Metric("m").max(), 6.0);
}

}  // namespace
}  // namespace voodb::exp

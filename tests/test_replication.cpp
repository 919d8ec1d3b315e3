/// \file test_replication.cpp
/// \brief Tests for independent replications (paper §4.2.2) run serially
/// by the replication engine (`threads = 1`).
#include <gtest/gtest.h>

#include <cmath>

#include "desp/random.hpp"
#include "desp/replication.hpp"
#include "exp/farm.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

/// Options that run every replication on the calling thread.
exp::FarmOptions Serial(uint64_t base_seed = 42) {
  exp::FarmOptions options;
  options.threads = 1;
  options.base_seed = base_seed;
  return options;
}

/// `n` serial replications of `model`: a one-point grid.
ReplicationResult RunSerial(const exp::Model& model, uint64_t n,
                            uint64_t base_seed = 42) {
  return exp::RunGrid(1, [&](size_t) { return model; }, n,
                      Serial(base_seed))
      .front();
}

TEST(MetricSink, RejectsDuplicateObservation) {
  MetricSink sink;
  sink.Observe("x", 1.0);
  EXPECT_THROW(sink.Observe("x", 2.0), util::Error);
}

TEST(ReplicationFarmSerial, RunsRequestedReplications) {
  int calls = 0;
  const ReplicationResult result = RunSerial(
      [&](uint64_t, MetricSink& sink) {
        ++calls;
        sink.Observe("v", 1.0);
      },
      7);
  EXPECT_EQ(calls, 7);
  EXPECT_EQ(result.replications(), 7u);
  EXPECT_EQ(result.Metric("v").count(), 7u);
}

TEST(ReplicationFarmSerial, SeedsAreDistinctAndDeterministic) {
  std::vector<uint64_t> seeds1;
  std::vector<uint64_t> seeds2;
  auto collect = [](std::vector<uint64_t>* out) {
    RunSerial(
        [out](uint64_t seed, MetricSink& sink) {
          out->push_back(seed);
          sink.Observe("v", 0.0);
        },
        5, 123);
  };
  collect(&seeds1);
  collect(&seeds2);
  EXPECT_EQ(seeds1, seeds2);
  for (size_t i = 0; i < seeds1.size(); ++i) {
    for (size_t j = i + 1; j < seeds1.size(); ++j) {
      EXPECT_NE(seeds1[i], seeds1[j]);
    }
  }
}

TEST(ReplicationFarmSerial, DifferentBaseSeedsGiveDifferentStreams) {
  auto first_seed = [](uint64_t base) {
    uint64_t got = 0;
    RunSerial(
        [&got](uint64_t seed, MetricSink& sink) {
          got = seed;
          sink.Observe("v", 0.0);
        },
        1, base);
    return got;
  };
  EXPECT_NE(first_seed(1), first_seed(2));
}

TEST(ReplicationFarmSerial, AggregatesMetricsAcrossReplications) {
  const ReplicationResult result = RunSerial(
      [](uint64_t seed, MetricSink& sink) {
        RandomStream rng(seed);
        sink.Observe("mean5", rng.Uniform(4.0, 6.0));
        sink.Observe("constant", 3.0);
      },
      100);
  EXPECT_NEAR(result.Metric("mean5").mean(), 5.0, 0.2);
  EXPECT_DOUBLE_EQ(result.Metric("constant").mean(), 3.0);
  EXPECT_DOUBLE_EQ(result.Metric("constant").stddev(), 0.0);
  EXPECT_TRUE(result.HasMetric("mean5"));
  EXPECT_FALSE(result.HasMetric("nope"));
  EXPECT_THROW(result.Metric("nope"), util::Error);
  EXPECT_EQ(result.MetricNames().size(), 2u);
}

TEST(ReplicationFarmSerial, ConfidenceIntervalCoversTrueMean) {
  const ReplicationResult result = RunSerial(
      [](uint64_t seed, MetricSink& sink) {
        RandomStream rng(seed);
        // Mean 10 exponential.
        sink.Observe("x", rng.Exponential(10.0));
      },
      100);
  const ConfidenceInterval ci = result.Interval("x", 0.95);
  EXPECT_TRUE(ci.Contains(10.0))
      << "[" << ci.lower() << ", " << ci.upper() << "]";
}

TEST(ReplicationFarmSerial, RunToPrecisionReachesTarget) {
  const exp::Model model = [](uint64_t seed, MetricSink& sink) {
    RandomStream rng(seed);
    sink.Observe("x", rng.Uniform(9.0, 11.0));
  };
  const ReplicationResult result =
      exp::RunToPrecision(model, Serial(), "x", 0.05, 10, 200);
  const ConfidenceInterval ci = result.Interval("x");
  // Within 5% of the sample mean with 95% confidence (the paper's goal).
  EXPECT_LE(ci.half_width, 0.05 * ci.mean * 1.25)  // slack for resampling
      << "n=" << result.replications();
  EXPECT_GE(result.replications(), 10u);
  EXPECT_LE(result.replications(), 200u);
}

TEST(ReplicationFarmSerial, RunToPrecisionStopsAtPilotWhenPrecise) {
  const exp::Model model = [](uint64_t, MetricSink& sink) {
    sink.Observe("x", 42.0);  // zero variance
  };
  const ReplicationResult result =
      exp::RunToPrecision(model, Serial(), "x", 0.05, 10, 100);
  EXPECT_EQ(result.replications(), 10u);
}

TEST(ReplicationFarmSerial, RejectsBadUsage) {
  const exp::Model model = [](uint64_t, MetricSink& sink) {
    sink.Observe("x", 1.0);
  };
  EXPECT_THROW(RunSerial(model, 0), util::Error);
  EXPECT_THROW(exp::RunToPrecision(model, Serial(), "x", 0.0), util::Error);
  EXPECT_THROW(exp::RunToPrecision(model, Serial(), "x", 0.05, 1),
               util::Error);
  EXPECT_THROW(RunSerial(nullptr, 3), util::Error);
}

}  // namespace
}  // namespace voodb::desp

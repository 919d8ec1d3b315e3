/// \file bench_micro_desp.cpp
/// \brief Microbenchmarks of the DESP simulation kernel.
///
/// The paper's motivation for DESP-C++ was raw kernel speed (QNAP2 made
/// experiments "8 hours to more than one week long"; DESP-C++ was 20 to
/// 1000x faster).  These benchmarks track the cost of the kernel
/// primitives so regressions are visible.
#include <benchmark/benchmark.h>

#include "desp/random.hpp"
#include "desp/replication.hpp"
#include "desp/resource.hpp"
#include "desp/scheduler.hpp"

namespace {

using voodb::desp::MetricSink;
using voodb::desp::RandomStream;
using voodb::desp::ReplicationRunner;
using voodb::desp::Resource;
using voodb::desp::Scheduler;

void BM_ScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    uint64_t sum = 0;
    for (uint64_t i = 0; i < events; ++i) {
      sched.Schedule(static_cast<double>(i % 97), [&sum, i] { sum += i; });
    }
    sched.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events));
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventChain(benchmark::State& state) {
  // Self-scheduling chain: the common pattern of actors re-arming.
  const auto depth = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    uint64_t remaining = depth;
    std::function<void()> step = [&] {
      if (--remaining > 0) sched.Schedule(1.0, step);
    };
    sched.Schedule(1.0, step);
    sched.Run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(depth));
}
BENCHMARK(BM_EventChain)->Arg(1000)->Arg(100000);

void BM_ResourceContention(benchmark::State& state) {
  const auto clients = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    Resource server(&sched, "server", 4);
    uint64_t completed = 0;
    for (uint64_t i = 0; i < clients; ++i) {
      sched.Schedule(static_cast<double>(i % 13), [&] {
        server.AcquireFor(5.0, [&] { ++completed; });
      });
    }
    sched.Run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(clients));
}
BENCHMARK(BM_ResourceContention)->Arg(1000)->Arg(10000);

void BM_RandomStreamU64(benchmark::State& state) {
  RandomStream rng(42);
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += rng.NextU64();
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomStreamU64);

void BM_RandomStreamZipf(benchmark::State& state) {
  RandomStream rng(42);
  int64_t sum = 0;
  for (auto _ : state) {
    sum += rng.Zipf(20000, 1.0);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomStreamZipf);

void BM_ReplicationRunner(benchmark::State& state) {
  for (auto _ : state) {
    ReplicationRunner runner([](uint64_t seed, MetricSink& sink) {
      RandomStream rng(seed);
      double acc = 0.0;
      for (int i = 0; i < 100; ++i) acc += rng.Exponential(1.0);
      sink.Observe("x", acc);
    });
    benchmark::DoNotOptimize(runner.Run(10).Metric("x").mean());
  }
}
BENCHMARK(BM_ReplicationRunner);

}  // namespace

BENCHMARK_MAIN();

/// \file test_kernel_determinism.cpp
/// \brief Golden event traces of full VOODB runs, and bit-identity of
/// experiments across farm thread counts.
///
/// The kernel's contract is a fixed total order of events — time, then
/// priority descending, then insertion seq.  These tests pin it down two
/// ways —
///
///  1. the event *trace* (the fired (time, priority, seq) keys, folded
///     into an FNV-1a digest) of two full VOODB runs matches a recorded
///     golden: a small page-server experiment with crash hazards
///     (Cancel/re-arm paths), and a contended wait-die run whose
///     same-timestamp decision continuations send most events through
///     the zero-delay fast lane.  Any change to the event list, the lane
///     or the lane/heap merge that reorders a single event breaks them;
///  2. the reduced replication statistics are bit-equal at every farm
///     thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "desp/scheduler.hpp"
#include "exp/scenario.hpp"
#include "ocb/workload.hpp"
#include "voodb/experiment.hpp"
#include "voodb/system.hpp"

namespace voodb::core {
namespace {

/// Unmeasured (COLDN) then measured transactions of the small experiment.
constexpr uint32_t kColdTransactions = 10;
constexpr uint64_t kHotTransactions = 60;

ExperimentConfig SmallExperiment() {
  ExperimentConfig ec;
  ec.system.system_class = SystemClass::kPageServer;
  ec.system.page_size = 1024;
  ec.system.buffer_pages = 24;
  ec.system.multiprogramming_level = 4;
  ec.system.num_users = 4;
  ec.system.failure_mtbf_ms = 40000.0;  // exercise Cancel/re-arm paths
  ec.workload.num_classes = 8;
  ec.workload.num_objects = 400;
  ec.workload.max_refs_per_class = 3;
  ec.workload.base_instance_size = 60;
  ec.workload.cold_transactions = kColdTransactions;
  ec.workload.seed = 71;
  return ec;
}

/// Folds the first `limit` fired keys into a 64-bit FNV-1a digest: the
/// time's IEEE-754 bits (8 bytes), the priority (4 bytes) and the seq
/// (8 bytes), each least-significant byte first.
struct TraceDigest {
  uint64_t limit = UINT64_MAX;
  uint64_t events = 0;
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis

  void Mix(uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;  // FNV-1a prime
    }
  }

  static void Record(void* ctx, const desp::EventKey& key) {
    auto* self = static_cast<TraceDigest*>(ctx);
    if (self->events == self->limit) return;
    ++self->events;
    uint64_t time_bits;
    std::memcpy(&time_bits, &key.time, sizeof(time_bits));
    self->Mix(time_bits, 8);
    self->Mix(static_cast<uint32_t>(key.priority), 4);
    self->Mix(key.seq, 8);
  }
};

TEST(KernelDeterminism, SmallExperimentTraceMatchesGolden) {
  const ExperimentConfig ec = SmallExperiment();
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ec.workload);
  VoodbSystem system(ec.system, &base, nullptr, /*seed=*/1234);
  TraceDigest trace;
  trace.limit = 10000;
  system.scheduler().SetTraceHook(&TraceDigest::Record, &trace);
  ocb::WorkloadGenerator workload(&base, desp::RandomStream(1234).Derive(1));
  system.RunTransactions(workload, kColdTransactions);
  system.RunTransactions(workload, kHotTransactions);
  EXPECT_EQ(trace.events, 8815u);
  EXPECT_EQ(trace.hash, 0x723a20625ef907b2ull);
}

TEST(KernelDeterminism, ContendedWaitDieTraceMatchesGolden) {
  ocb::OcbParameters workload;
  workload.num_classes = 8;
  workload.num_objects = 300;
  workload.max_refs_per_class = 3;
  workload.base_instance_size = 60;
  workload.p_update = 0.5;
  workload.root_region = 6;
  workload.seed = 111;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(workload);
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 128;
  cfg.num_users = 64;
  cfg.multiprogramming_level = 64;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = cc::ProtocolKind::kWaitDie;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  VoodbSystem system(cfg, &base, nullptr, /*seed=*/13);
  TraceDigest trace;
  system.scheduler().SetTraceHook(&TraceDigest::Record, &trace);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  system.RunTransactions(gen, 200);
  // The run exercises the lane/heap merge, not just the heap: the exact
  // split pins which events take the zero-delay lane.
  const desp::QueueStats& stats = system.scheduler().queue_stats();
  EXPECT_EQ(stats.lane_pops, 131195u);
  EXPECT_EQ(stats.heap_pops, 181660u);
  EXPECT_EQ(trace.events, 312855u);
  EXPECT_EQ(trace.hash, 0x9d1bc493b037046bull);
}

TEST(KernelDeterminism, ExperimentBitIdenticalAcrossThreads) {
  const exp::Cell cell{"small", SmallExperiment(), kHotTransactions};
  exp::ScenarioOptions options;
  options.replications = 4;
  options.seed = 42;

  // Reference: serial farm.
  options.threads = 1;
  const desp::ReplicationResult reference =
      exp::RunCells({cell}, options).front().result;

  for (size_t threads : {size_t{2}, size_t{4}}) {
    options.threads = threads;
    const desp::ReplicationResult result =
        exp::RunCells({cell}, options).front().result;
    for (const std::string& metric : reference.MetricNames()) {
      const desp::Tally& want = reference.Metric(metric);
      const desp::Tally& got = result.Metric(metric);
      // Exact equality on every reduced statistic: scheduling order
      // across farm workers must not leak into results.
      EXPECT_EQ(got.count(), want.count()) << metric << " t" << threads;
      EXPECT_EQ(got.mean(), want.mean()) << metric << " t" << threads;
      EXPECT_EQ(got.variance(), want.variance()) << metric << " t" << threads;
      EXPECT_EQ(got.min(), want.min()) << metric << " t" << threads;
      EXPECT_EQ(got.max(), want.max()) << metric << " t" << threads;
    }
  }
}

}  // namespace
}  // namespace voodb::core

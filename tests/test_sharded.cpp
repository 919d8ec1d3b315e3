// ShardedVoodb: N hash-partitioned VOODB stacks on the conservative
// window kernel.  The load-bearing property is determinism: metrics and
// event digests are pinned bit for bit by golden values.
#include <gtest/gtest.h>

#include <vector>

#include "desp/random.hpp"
#include "exp/scenario.hpp"
#include "ocb/object_base.hpp"
#include "scenarios.hpp"
#include "util/check.hpp"
#include "voodb/sharded.hpp"

namespace voodb::core {
namespace {

ocb::OcbParameters SmallWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 5;
  p.num_objects = 400;
  p.think_time_ms = 1.0;
  return p;
}

VoodbConfig ShardConfig(uint32_t shards, double multi_partition_pct) {
  VoodbConfig cfg;
  cfg.shards = shards;
  cfg.multi_partition_pct = multi_partition_pct;
  cfg.buffer_pages = 64;
  cfg.num_users = 3;
  cfg.network_throughput_mbps = 1.0;
  return cfg;
}

struct RunResult {
  PhaseMetrics merged;
  std::vector<PhaseMetrics> per_shard;
  uint64_t digest = 0;
  uint64_t remote = 0;
  uint64_t windows = 0;
};

RunResult RunSharded(uint32_t shards, double mp_pct,
                     uint64_t transactions = 40) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  ShardedVoodb sys(ShardConfig(shards, mp_pct), &base, /*seed=*/7);
  RunResult r;
  r.merged = sys.Run(transactions);
  r.per_shard = sys.shard_metrics();
  r.digest = sys.TraceDigest();
  r.remote = sys.remote_subtxns();
  r.windows = sys.kernel().Windows();
  return r;
}

/// The PhaseMetrics fields a golden pins.
struct MetricsGolden {
  uint64_t transactions;
  uint64_t object_accesses;
  uint64_t transaction_restarts;
  uint64_t total_ios;
  uint64_t reads;
  uint64_t writes;
  uint64_t buffer_hits;
  uint64_t buffer_requests;
  uint64_t network_bytes;
  double sim_time_ms;
  double mean_response_ms;
};

void ExpectGolden(const PhaseMetrics& m, const MetricsGolden& golden) {
  EXPECT_EQ(m.transactions, golden.transactions);
  EXPECT_EQ(m.object_accesses, golden.object_accesses);
  EXPECT_EQ(m.transaction_restarts, golden.transaction_restarts);
  EXPECT_EQ(m.total_ios, golden.total_ios);
  EXPECT_EQ(m.reads, golden.reads);
  EXPECT_EQ(m.writes, golden.writes);
  EXPECT_EQ(m.buffer_hits, golden.buffer_hits);
  EXPECT_EQ(m.buffer_requests, golden.buffer_requests);
  EXPECT_EQ(m.network_bytes, golden.network_bytes);
  // Doubles compared exactly: "close" is not the contract.
  EXPECT_EQ(m.sim_time_ms, golden.sim_time_ms);
  EXPECT_EQ(m.mean_response_ms, golden.mean_response_ms);
}

TEST(ShardedVoodb, SingleShardRunsAndMergesTrivially) {
  const RunResult r = RunSharded(1, 0.0);
  EXPECT_EQ(r.merged.transactions, 40u);
  EXPECT_EQ(r.per_shard.size(), 1u);
  EXPECT_EQ(r.remote, 0u);
  EXPECT_GT(r.merged.total_ios, 0u);
}

TEST(ShardedVoodb, ShardsRunIndependentStacksAndMetricsSum) {
  const RunResult r = RunSharded(4, 0.0);
  EXPECT_EQ(r.per_shard.size(), 4u);
  // No multi-partition traffic: each shard commits its own 40.
  EXPECT_EQ(r.merged.transactions, 4u * 40u);
  uint64_t ios = 0;
  for (const PhaseMetrics& m : r.per_shard) ios += m.total_ios;
  EXPECT_EQ(r.merged.total_ios, ios);
  EXPECT_EQ(r.remote, 0u);
}

TEST(ShardedVoodb, MultiPartitionTransactionsCrossShards) {
  const RunResult r = RunSharded(4, 0.5);
  // Roughly half of 4*40 home transactions spawn a remote sub-txn; the
  // sub-transactions commit on their serving shard, so they are counted.
  EXPECT_GT(r.remote, 20u);
  EXPECT_EQ(r.merged.transactions, 4u * 40u + r.remote);
  // Every request leg crossed the network.
  EXPECT_GT(r.merged.network_bytes, 0u);
  EXPECT_GT(r.windows, 1u);
}

// The goldens below were recorded from the thread-crew kernel the
// one-thread window loop replaced; there its runs at 2, 4 and 8 threads
// were bit-identical to its serial run.

TEST(ShardedVoodb, BitIdenticalAcrossThreadCounts) {
  const RunResult r = RunSharded(4, 0.4);
  EXPECT_EQ(r.digest, 0x2d334b91cddce16dull);
  EXPECT_EQ(r.remote, 51u);
  EXPECT_EQ(r.windows, 2459u);
  ExpectGolden(r.merged, {211, 7278, 0, 12, 12, 0, 7266, 7278, 30951168,
                          0x1.4944810c353bdp+13, 0x1.d20c57f2445cbp+8});
  const MetricsGolden shards[] = {
      {51, 1195, 0, 3, 3, 0, 1192, 1195, 5117312, 0x1.4923bc708f588p+13,
       0x1.27233ac5dde49p+8},
      {54, 2270, 0, 3, 3, 0, 2267, 2270, 9633536, 0x1.4944810c353bdp+13,
       0x1.20db3734be8eep+9},
      {55, 1674, 0, 3, 3, 0, 1671, 1674, 7116032, 0x1.35e7578b7e5cbp+13,
       0x1.9c383ac3371e8p+8},
      {51, 2139, 0, 3, 3, 0, 2136, 2139, 9084288, 0x1.36081c27244p+13,
       0x1.20635f07b4789p+9},
  };
  ASSERT_EQ(r.per_shard.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    SCOPED_TRACE(s);
    ExpectGolden(r.per_shard[s], shards[s]);
  }
}

TEST(ShardedVoodb, ConsecutivePhasesStayDeterministic) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  ShardedVoodb sys(ShardConfig(2, 0.25), &base, /*seed=*/11);
  ExpectGolden(sys.Run(30), {76, 4856, 0, 10, 10, 0, 4846, 4856, 20577280,
                             0x1.89b3f74d63522p+13, 0x1.b3a0972c39f34p+9});
  EXPECT_EQ(sys.TraceDigest(), 0xe74f599d687698f2ull);
  // The second phase starts both shards at the later clock of the first,
  // so unlike the first phase its golden is the window loop's own.
  ExpectGolden(sys.Run(30), {71, 5343, 0, 0, 0, 0, 5343, 5343, 22613888,
                             0x1.b3be12f0a81ep+13, 0x1.fdb66b999aacep+9});
  EXPECT_EQ(sys.TraceDigest(), 0xe53ec08b52913f4dull);
}

TEST(ShardedVoodb, RunsASecondPhaseAfterMultiPartitionTraffic) {
  // The first phase ends with each shard's clock at its own last event;
  // a shard that ended behind must not mail into the past of one ahead.
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  ShardedVoodb sys(ShardConfig(2, 0.2), &base, /*seed=*/7);
  sys.Run(1500);
  const double first_end = sys.kernel().MaxNow();
  const uint64_t remote_before = sys.remote_subtxns();
  const PhaseMetrics second = sys.Run(400);
  EXPECT_GT(sys.remote_subtxns(), remote_before);
  EXPECT_EQ(second.transactions,
            2u * 400u + (sys.remote_subtxns() - remote_before));
  for (size_t s = 0; s < sys.shards(); ++s) {
    EXPECT_GT(sys.kernel().partition(s).Now(), first_end);
  }
}

/// EventDigest::Fold as plain FNV-1a, one byte at a time.
uint64_t ByteWiseFold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= EventDigest::kPrime;
  }
  return h;
}

TEST(ShardedVoodb, EventDigestFoldMatchesTheByteWiseFold) {
  std::vector<uint64_t> words = {0,
                                 1,
                                 1ull << 56,
                                 UINT64_MAX,
                                 static_cast<uint64_t>(int64_t{-1})};
  desp::RandomStream rng(2024);
  for (int i = 0; i < 100000; ++i) {
    // Random widths, so every count of high zero bytes occurs.
    const uint64_t word = rng.NextU64();
    words.push_back(word >> (8 * static_cast<unsigned>(i % 8)));
  }
  EventDigest digest;
  uint64_t reference = EventDigest::kOffsetBasis;
  for (const uint64_t word : words) {
    digest.Fold(word);
    reference = ByteWiseFold(reference, word);
    ASSERT_EQ(digest.h, reference) << "word " << word;
  }
}

TEST(ShardedVoodb, CcAbyssProtocolsReproduceTheirShardedGoldens) {
  // cc_abyss's system and workload at shards=2 with 8 users, every
  // protocol, 250 transactions per shard, seed 42.
  bench::RegisterBenchScenarios();
  const exp::Scenario* scenario =
      exp::ScenarioRegistry::Instance().Find("cc_abyss");
  ASSERT_NE(scenario, nullptr);
  const ocb::ObjectBase base =
      ocb::ObjectBase::Generate(scenario->base.workload);
  struct Golden {
    cc::ProtocolKind kind;
    uint64_t digest;
    uint64_t restarts;
    double sim_time_ms;
  };
  const Golden goldens[] = {
      {cc::ProtocolKind::kNoWait, 0x88e3c26817186e3dull, 51,
       0x1.6a2900000003ep+13},
      {cc::ProtocolKind::kWaitDie, 0xb2fc0ec16d541859ull, 9,
       0x1.6922851eb855dp+13},
      {cc::ProtocolKind::kDeadlockDetect, 0xe15670c1cd40bdf4ull, 0,
       0x1.6922851eb855dp+13},
      {cc::ProtocolKind::kMvcc, 0xa6d6dae8e8288b63ull, 4,
       0x1.6ac5ccccccd0cp+13},
      {cc::ProtocolKind::kOcc, 0x5bfe18afcb9173a8ull, 7,
       0x1.693751eb8522ap+13},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(cc::ToString(golden.kind));
    VoodbConfig cfg = scenario->base.system;
    cfg.use_lock_manager = true;
    cfg.cc_protocol = golden.kind;
    cfg.num_users = 8;
    cfg.multiprogramming_level = 8;
    cfg.shards = 2;
    ShardedVoodb sys(cfg, &base, /*seed=*/42);
    const PhaseMetrics m = sys.Run(250);
    EXPECT_EQ(sys.TraceDigest(), golden.digest);
    EXPECT_EQ(m.transactions, 500u);
    EXPECT_EQ(m.transaction_restarts, golden.restarts);
    EXPECT_EQ(m.sim_time_ms, golden.sim_time_ms);
  }
}

TEST(ShardedVoodb, MergedMetricRegistrySnapshotsInShardOrder) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  ShardedVoodb sys(ShardConfig(2, 0.0), &base, /*seed=*/3);
  sys.Run(20);
  const obs::MetricSnapshot merged = sys.MergedMetrics();
  // Counters from both shards folded: the merged I/O counter matches the
  // per-shard metric sum.
  const auto reads = merged.counters.find("io.reads");
  const auto writes = merged.counters.find("io.writes");
  ASSERT_NE(reads, merged.counters.end());
  ASSERT_NE(writes, merged.counters.end());
  uint64_t ios = 0;
  for (const PhaseMetrics& m : sys.shard_metrics()) ios += m.total_ios;
  EXPECT_EQ(reads->second + writes->second, ios);
}

TEST(ShardedVoodb, ProfilerSpansEveryPartition) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = ShardConfig(2, 0.25);
  cfg.observe = true;
  ShardedVoodb sys(cfg, &base, /*seed=*/5);
  sys.Run(20);
  ASSERT_NE(sys.profiler(), nullptr);
  EXPECT_GT(sys.profiler()->total_events(), 0u);
  // Both partitions contributed (the merged table is name-keyed; the
  // totals span shard0 and shard1).
  EXPECT_EQ(sys.profiler()->total_events(),
            sys.kernel().ExecutedEvents());
}

TEST(ShardedVoodb, RejectsConfigurationsTheKernelCannotDrain) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig hazard = ShardConfig(2, 0.0);
  hazard.failure_mtbf_ms = 1000.0;  // re-arms forever: cannot drain
  EXPECT_THROW(ShardedVoodb(hazard, &base, 1), util::Error);

  VoodbConfig tracing = ShardConfig(2, 0.0);
  tracing.trace_record = true;
  tracing.trace_path = "x.vtrc";
  EXPECT_THROW(ShardedVoodb(tracing, &base, 1), util::Error);

  VoodbConfig tiny = ShardConfig(128, 0.0);  // 400/128 < 5 classes
  EXPECT_THROW(ShardedVoodb(tiny, &base, 1), util::Error);
}

}  // namespace
}  // namespace voodb::core

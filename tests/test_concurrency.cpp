/// \file test_concurrency.cpp
/// \brief End-to-end tests of the locking extension inside the VOODB
/// system (wait-die restarts, termination, latency effects).
#include <gtest/gtest.h>

#include "desp/random.hpp"
#include "ocb/workload.hpp"
#include "voodb/system.hpp"

namespace voodb::core {
namespace {

ocb::OcbParameters ContendedWorkload() {
  ocb::OcbParameters p;
  p.num_classes = 8;
  p.num_objects = 300;
  p.max_refs_per_class = 3;
  p.base_instance_size = 60;
  p.p_update = 0.5;
  p.root_region = 6;  // hot roots: transactions collide
  p.seed = 111;
  return p;
}

VoodbConfig ContendedConfig() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 128;
  cfg.multiprogramming_level = 8;
  cfg.num_users = 8;
  cfg.use_lock_manager = true;
  cfg.get_lock_ms = 0.2;
  cfg.release_lock_ms = 0.2;
  return cfg;
}

TEST(Concurrency, ContendedWorkloadCompletesWithRestarts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 120);
  EXPECT_EQ(m.transactions, 120u);
  // Hot-spot write contention with 8 concurrent transactions must
  // produce at least some wait-die aborts.
  EXPECT_GT(m.transaction_restarts, 0u);
  const cc::Protocol* locks = sys.transaction_manager().cc_protocol();
  ASSERT_NE(locks, nullptr);
  EXPECT_EQ(locks->stats().aborts_wait_die, m.transaction_restarts);
  EXPECT_GT(locks->stats().requests, 0u);
  // All locks were released at the end.
  EXPECT_EQ(locks->ActiveTransactions(), 0u);
}

TEST(Concurrency, NoContentionMeansNoRestarts) {
  ocb::OcbParameters wl = ContendedWorkload();
  wl.p_update = 0.0;  // read-only: S locks never conflict
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(wl);
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 120);
  EXPECT_EQ(m.transaction_restarts, 0u);
}

TEST(Concurrency, SingleStreamNeverRestarts) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.num_users = 1;
  cfg.multiprogramming_level = 1;
  VoodbSystem sys(cfg, &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  const PhaseMetrics m = sys.RunTransactions(gen, 60);
  EXPECT_EQ(m.transaction_restarts, 0u);
}

TEST(Concurrency, LockManagerOffMeansNoLockState) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.use_lock_manager = false;
  VoodbSystem sys(cfg, &base, nullptr, 13);
  EXPECT_EQ(sys.transaction_manager().cc_protocol(), nullptr);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  EXPECT_EQ(sys.RunTransactions(gen, 60).transaction_restarts, 0u);
}

TEST(Concurrency, ContentionRaisesResponseTimes) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  auto mean_response = [&](bool locks) {
    VoodbConfig cfg = ContendedConfig();
    cfg.use_lock_manager = locks;
    VoodbSystem sys(cfg, &base, nullptr, 13);
    ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
    return sys.RunTransactions(gen, 120).mean_response_ms;
  };
  // Real blocking + restarts cost more than the fixed-delay model.
  EXPECT_GT(mean_response(true), mean_response(false));
}

TEST(Concurrency, ResponseHistogramTracksPercentiles) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbSystem sys(ContendedConfig(), &base, nullptr, 13);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(13));
  sys.RunTransactions(gen, 120);
  const desp::LogHistogram& h =
      sys.transaction_manager().response_histogram();
  EXPECT_EQ(h.count(), 120u);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  EXPECT_GE(h.Quantile(0.5), h.min());
  EXPECT_LE(h.Quantile(0.99), h.max() * 1.05);
}

/// Property sweep: the contended workload terminates for every
/// multiprogramming level (no livelock in wait-die + backoff).
class ConcurrencyLevels : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ConcurrencyLevels, AlwaysTerminates) {
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.multiprogramming_level = GetParam();
  cfg.num_users = GetParam();
  VoodbSystem sys(cfg, &base, nullptr, 17);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(17));
  const PhaseMetrics m = sys.RunTransactions(gen, 80);
  EXPECT_EQ(m.transactions, 80u);
}

INSTANTIATE_TEST_SUITE_P(Levels, ConcurrencyLevels,
                         ::testing::Values(2u, 4u, 8u, 16u));

/// Replays one fixed transaction: `accesses` operations cycling over the
/// base's first `span` objects, every third one a write.
class CyclingSource : public ocb::WorkloadSource {
 public:
  CyclingSource(size_t accesses, ocb::Oid span) {
    txn_.root = 0;
    for (size_t i = 0; i < accesses; ++i) {
      txn_.accesses.push_back({static_cast<ocb::Oid>(i) % span, i % 3 == 0});
    }
  }
  ocb::Transaction Next() override { return txn_; }
  ocb::Transaction NextOfKind(ocb::TransactionKind) override { return txn_; }

 private:
  ocb::Transaction txn_;
};

TEST(Concurrency, AllHitTransactionRunsInConstantStackDepth) {
  // With zero CPU costs and a resident base, every access after the first
  // few is a buffer hit, and under a protocol an immediate grant: each
  // one's continuation comes back synchronously.  The Transaction Manager
  // must iterate over them, not recurse (20,000 nested accesses overflow
  // an 8 MiB stack).
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(ContendedWorkload());
  VoodbConfig cfg = ContendedConfig();
  cfg.num_users = 1;
  cfg.multiprogramming_level = 1;
  cfg.get_lock_ms = 0.0;
  cfg.object_cpu_ms = 0.0;
  cfg.release_lock_ms = 0.0;
  cfg.clustering_stat_cpu_ms = 0.0;
  const auto run = [&](bool locking, cc::ProtocolKind kind) {
    SCOPED_TRACE(locking ? cc::ToString(kind) : "no protocol");
    cfg.use_lock_manager = locking;
    cfg.cc_protocol = kind;
    VoodbSystem sys(cfg, &base, nullptr, 13);
    CyclingSource source(20000, 40);
    const PhaseMetrics m = sys.RunTransactions(source, 1);
    EXPECT_EQ(m.transactions, 1u);
    EXPECT_EQ(sys.transaction_manager().committed(), 1u);
    EXPECT_EQ(sys.transaction_manager().object_operations(), 20000u);
    EXPECT_EQ(m.transaction_restarts, 0u);
    if (locking) {
      EXPECT_EQ(sys.transaction_manager().cc_protocol()->ActiveTransactions(),
                0u);
    }
  };
  run(false, cc::ProtocolKind::kWaitDie);
  for (const cc::ProtocolKind kind :
       {cc::ProtocolKind::kNoWait, cc::ProtocolKind::kWaitDie,
        cc::ProtocolKind::kDeadlockDetect, cc::ProtocolKind::kMvcc,
        cc::ProtocolKind::kOcc}) {
    run(true, kind);
  }
}

}  // namespace
}  // namespace voodb::core

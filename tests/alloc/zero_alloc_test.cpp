/// \file zero_alloc_test.cpp
/// \brief The simulation's steady state performs no heap allocation.
///
/// This executable replaces the global `operator new` with a counting
/// version, which is why it is not part of `voodb_tests`: the counter
/// stays out of the library and out of the main suite, and sanitizer
/// builds keep their own allocator there.
///
/// Most tests run a model on a pre-generated transaction stream (so
/// workload generation is outside the count).  Two draw from a live
/// `ocb::WorkloadGenerator` instead (`LiveGeneratorContendedWaitDie`,
/// `GeneratorRefillsEveryTraversalKind`), so generation into recycled
/// transaction buffers is inside the count.  The source notes the
/// allocation counter when its `from`-th and its `to`-th transactions
/// are drawn: after the warm-up the window in between, mid-run, must
/// allocate nothing at all — no transaction, restart, lock wait, disk
/// I/O, network transfer, span or cross-shard message.  The model's
/// pools may still grow when their total occupancy reaches a new high
/// (geometrically, so rarely); each window sits after its
/// configuration's warm-up has passed those highs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "cc/lock_table.hpp"
#include "cluster/dstc.hpp"
#include "ocb/object_base.hpp"
#include "ocb/workload.hpp"
#include "storage/placement.hpp"
#include "util/check.hpp"
#include "voodb/catalog.hpp"
#include "voodb/sharded.hpp"
#include "voodb/system.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: inlined into a caller, free() would meet a pointer GCC
// knows came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace voodb::core {
namespace {

/// A transaction source that notes the allocation counter when its
/// `from`-th and `to`-th transactions are drawn.
class WindowSource : public ocb::WorkloadSource {
 public:
  WindowSource(uint64_t from, uint64_t to) : from_(from), to_(to) {}

  /// Allocations between the two marked draws.
  uint64_t WindowAllocations() const {
    VOODB_CHECK_MSG(drawn_ > to_, "the window was not reached");
    return at_to_ - at_from_;
  }

 protected:
  /// Called once per transaction drawn, before it is produced.
  void Mark() {
    if (drawn_ == from_) at_from_ = g_allocations.load();
    if (drawn_ == to_) at_to_ = g_allocations.load();
    ++drawn_;
  }

 private:
  uint64_t drawn_ = 0;
  uint64_t from_;
  uint64_t to_;
  uint64_t at_from_ = 0;
  uint64_t at_to_ = 0;
};

/// A fixed, pre-generated transaction stream.  Forced kinds are
/// ignored: the stream holds the kind its consumer asks for.
class StreamSource final : public WindowSource {
 public:
  StreamSource(ocb::WorkloadSource& gen, uint64_t n, uint64_t from,
               uint64_t to, const ocb::TransactionKind* kind = nullptr)
      : WindowSource(from, to) {
    txns_.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      txns_.push_back(kind != nullptr ? gen.NextOfKind(*kind) : gen.Next());
    }
  }
  ocb::Transaction Next() override {
    VOODB_CHECK_MSG(next_ < txns_.size(), "pre-generated stream exhausted");
    Mark();
    return std::move(txns_[next_++]);
  }
  ocb::Transaction NextOfKind(ocb::TransactionKind) override { return Next(); }

 private:
  std::vector<ocb::Transaction> txns_;
  size_t next_ = 0;
};

/// A live generator behind the window marks; NextInto is forwarded, so
/// the driver's recycled buffer is what the generator fills.
class LiveSource final : public WindowSource {
 public:
  LiveSource(ocb::WorkloadSource& gen, uint64_t from, uint64_t to)
      : WindowSource(from, to), gen_(gen) {}
  ocb::Transaction Next() override {
    ocb::Transaction txn;
    NextInto(txn, nullptr);
    return txn;
  }
  ocb::Transaction NextOfKind(ocb::TransactionKind kind) override {
    ocb::Transaction txn;
    NextInto(txn, &kind);
    return txn;
  }
  void NextInto(ocb::Transaction& txn,
                const ocb::TransactionKind* kind) override {
    Mark();
    gen_.NextInto(txn, kind);
  }

 private:
  ocb::WorkloadSource& gen_;
};

/// The contended wait-die configuration: point accesses of a fixed
/// count, so every transaction buffer reaches its final size the first
/// time it is filled.
ocb::ObjectBase ContendedBase() {
  ocb::OcbParameters p;
  p.num_classes = 20;
  p.num_objects = 4000;
  p.p_set = p.p_simple = p.p_hierarchy = p.p_stochastic = 0.0;
  p.p_random_access = 1.0;
  p.random_access_count = 8;
  p.p_update = 0.25;
  return ocb::ObjectBase::Generate(p);
}

VoodbConfig ContendedWaitDieConfig() {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.buffer_pages = 256;
  cfg.use_lock_manager = true;
  cfg.cc_protocol = cc::ProtocolKind::kWaitDie;
  cfg.num_users = 256;
  cfg.multiprogramming_level = 256;
  return cfg;
}

TEST(ZeroAlloc, ContendedWaitDieSystem) {
  const ocb::ObjectBase base = ContendedBase();
  VoodbSystem sys(ContendedWaitDieConfig(), &base, nullptr, 11);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(11));
  StreamSource stream(gen, 6000, 3000, 5000);
  const PhaseMetrics m = sys.RunTransactions(stream, 6000);
  ASSERT_EQ(m.transactions, 6000u);
  EXPECT_GT(m.transaction_restarts, 0u);
  EXPECT_EQ(stream.WindowAllocations(), 0u);
}

TEST(ZeroAlloc, LiveGeneratorContendedWaitDie) {
  // As above, with each transaction generated as the run needs it, into
  // the buffer its user recycles from the Transaction Manager's pool.
  const ocb::ObjectBase base = ContendedBase();
  VoodbSystem sys(ContendedWaitDieConfig(), &base, nullptr, 11);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(11));
  LiveSource live(gen, 3000, 5000);
  const PhaseMetrics m = sys.RunTransactions(live, 6000);
  ASSERT_EQ(m.transactions, 6000u);
  EXPECT_GT(m.transaction_restarts, 0u);
  EXPECT_EQ(gen.GeneratedAccesses(), 6000u * 8u);
  EXPECT_EQ(live.WindowAllocations(), 0u);
}

TEST(ZeroAlloc, GeneratorRefillsEveryTraversalKind) {
  // Generation alone, every kind but the sequential scan: once one
  // recycled buffer (and the set-oriented walk's queue) has held the
  // largest transaction, refilling it allocates nothing.
  ocb::OcbParameters p;
  p.num_classes = 20;
  p.num_objects = 4000;
  p.p_set = p.p_simple = p.p_hierarchy = p.p_stochastic = 0.2;
  p.p_random_access = 0.2;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(3));
  LiveSource live(gen, 2000, 3000);
  ocb::Transaction txn;
  std::array<uint64_t, 6> kinds{};
  for (int i = 0; i <= 3000; ++i) {
    live.NextInto(txn, nullptr);
    ++kinds[static_cast<size_t>(txn.kind)];
  }
  for (size_t k = 0; k < 5; ++k) EXPECT_GT(kinds[k], 0u) << k;
  EXPECT_EQ(live.WindowAllocations(), 0u);
}

TEST(ZeroAlloc, FreshWaitDieAttemptsGrowTheLockTableGeometrically) {
  // 1024 wait-die transactions live at once on a new lock table, each
  // locking 3 objects, then all commit.  Every attempt takes a fresh
  // transaction slot, held list and holder records, but all of them live
  // in the table's arrays, which grow by doubling: the count grows with
  // the logarithm of the concurrency, not by an allocation or two per
  // attempt.  About seven arrays (index cells, slots, free slots, holder
  // and held-list nodes and their free lists) double up to 13 times each
  // to reach 3072 entries, so the window reads about 90; an allocation
  // per attempt would read over 1024.
  desp::Scheduler sched;
  sched.Schedule(0.0, [] {});
  sched.Run();  // the event list is warm; the window counts the table
  cc::LockTable table(&sched, cc::ProtocolKind::kWaitDie);
  constexpr uint64_t kTxns = 1024;
  const uint64_t before = g_allocations.load();
  uint64_t granted = 0;
  for (uint64_t t = 0; t < kTxns; ++t) {
    table.Begin(t, t);
    for (ocb::Oid oid = 0; oid < 3; ++oid) {
      table.Access(t, oid, false, [&granted] { ++granted; }, [] {});
      sched.Run();
    }
  }
  for (uint64_t t = 0; t < kTxns; ++t) table.Commit(t);
  const uint64_t window = g_allocations.load() - before;
  EXPECT_EQ(granted, 3 * kTxns);
  EXPECT_EQ(table.ActiveTransactions(), 0u);
  EXPECT_LE(window, 128u);
}

TEST(ZeroAlloc, TexasWithDstcClustering) {
  ocb::OcbParameters p;
  p.num_classes = 50;
  p.num_objects = 8000;
  p.hierarchy_depth = 3;
  p.root_region = 30;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  VoodbSystem sys(SystemCatalog::TexasWithMemory(2.0), &base,
                  std::make_unique<cluster::DstcPolicy>(), 5);
  ASSERT_TRUE(sys.buffering_manager().uses_virtual_memory());
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(5));
  const auto kind = ocb::TransactionKind::kHierarchyTraversal;
  // Usage, reorganization, restart: the measured run is on the
  // clustered base.
  StreamSource usage(gen, 500, 0, 1, &kind);
  sys.RunTransactionsOfKind(usage, kind, 500);
  ASSERT_TRUE(sys.TriggerClustering().reorganized);
  sys.DropBuffer();
  StreamSource stream(gen, 2000, 1000, 1900, &kind);
  const PhaseMetrics m = sys.RunTransactionsOfKind(stream, kind, 2000);
  ASSERT_EQ(m.transactions, 2000u);
  EXPECT_GT(m.reads, 0u);
  EXPECT_GT(m.writes, 0u);
  EXPECT_EQ(stream.WindowAllocations(), 0u);
}

TEST(ZeroAlloc, DstcTriggerAllocatesPerClusterOnly) {
  // A DSTC trigger builds its candidate links, seeds and fragments in
  // scratch arrays it keeps between triggers; what it allocates is its
  // outcome: each cluster once at its exact size, plus the cluster list,
  // the moved set and the overlap marks (clusters + 3 here, where a
  // container per source and per seed read about 6,000).  Two warm-up
  // triggers size the scratch; the third, on a stream of the same shape,
  // is counted.
  ocb::OcbParameters p;
  p.num_classes = 20;
  p.num_objects = 3000;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  const storage::Placement pl = storage::Placement::Build(
      base, 4096, storage::PlacementPolicy::kOptimizedSequential);
  ocb::WorkloadGenerator gen(&base, desp::RandomStream(7));
  std::vector<ocb::Transaction> txns;
  for (int i = 0; i < 600; ++i) txns.push_back(gen.Next());
  cluster::DstcPolicy dstc;
  uint64_t window = 0;
  cluster::ClusteringOutcome outcome;
  for (size_t phase = 0; phase < 3; ++phase) {
    for (size_t i = phase * 200; i < (phase + 1) * 200; ++i) {
      dstc.OnTransactionStart();
      for (const ocb::ObjectAccess& a : txns[i].accesses) {
        dstc.OnObjectAccess(a.oid, a.is_write);
      }
      dstc.OnTransactionEnd();
    }
    const uint64_t before = g_allocations.load();
    outcome = dstc.Recluster(base, pl);
    window = g_allocations.load() - before;
  }
  ASSERT_TRUE(outcome.reorganized);
  EXPECT_GT(outcome.NumClusters(), 100u);
  EXPECT_LE(window, outcome.NumClusters() + 8);
}

TEST(ZeroAlloc, TwoShardSerialShardedVoodb) {
  ocb::OcbParameters p;
  p.num_classes = 20;
  p.num_objects = 4000;
  p.think_time_ms = 1.0;
  const ocb::ObjectBase base = ocb::ObjectBase::Generate(p);
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.buffer_pages = 256;
  cfg.network_throughput_mbps = 1.0;
  cfg.num_users = 3;
  cfg.multi_partition_pct = 0.2;
  cfg.shards = 2;
  ShardedVoodb sys(cfg, &base, 9);
  // Each shard's stream also feeds the sub-transactions it serves for
  // the other shard, hence the headroom; the window is on shard 0.
  std::vector<std::unique_ptr<StreamSource>> streams;
  for (size_t s = 0; s < sys.shards(); ++s) {
    ocb::WorkloadGenerator gen(&sys.shard(s).object_manager().base(),
                               desp::RandomStream(9 + s));
    streams.push_back(std::make_unique<StreamSource>(gen, 4000, 1500, 2500));
    sys.SetWorkload(s, streams.back().get());
  }
  const PhaseMetrics m = sys.Run(3000);
  EXPECT_GE(m.transactions, 6000u);
  EXPECT_GT(sys.remote_subtxns(), 0u);
  EXPECT_EQ(streams[0]->WindowAllocations(), 0u);
}

}  // namespace
}  // namespace voodb::core

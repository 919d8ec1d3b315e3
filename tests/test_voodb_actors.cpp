/// \file test_voodb_actors.cpp
/// \brief Unit tests for the individual VOODB active resources.
#include <gtest/gtest.h>

#include "cluster/dstc.hpp"
#include "util/check.hpp"
#include "voodb/buffering_manager.hpp"
#include "voodb/clustering_manager.hpp"
#include "voodb/io_subsystem.hpp"
#include "voodb/network.hpp"
#include "voodb/object_manager.hpp"

namespace voodb::core {
namespace {

ocb::ObjectBase SmallBase() {
  ocb::OcbParameters p;
  p.num_classes = 6;
  p.num_objects = 150;
  p.max_refs_per_class = 3;
  p.base_instance_size = 100;
  p.seed = 51;
  return ocb::ObjectBase::Generate(p);
}

TEST(IoSubsystemActor, ExecutesIosSequentiallyWithDiskTiming) {
  desp::Scheduler sched;
  IoSubsystemActor io(&sched, storage::DiskParameters{7.0, 2.0, 1.0});
  bool done = false;
  io.Execute({storage::PageIo{storage::PageIo::Kind::kRead, 5},
              storage::PageIo{storage::PageIo::Kind::kRead, 6},
              storage::PageIo{storage::PageIo::Kind::kWrite, 40}},
             [&] { done = true; });
  sched.Run();
  EXPECT_TRUE(done);
  // 10 (seek) + 3 (contiguous) + 10 (seek) = 23 ms.
  EXPECT_DOUBLE_EQ(sched.Now(), 23.0);
  EXPECT_EQ(io.reads(), 2u);
  EXPECT_EQ(io.writes(), 1u);
}

TEST(IoSubsystemActor, EmptyBatchCompletesImmediately) {
  desp::Scheduler sched;
  IoSubsystemActor io(&sched, {});
  bool done = false;
  io.Execute({}, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sched.Now(), 0.0);
}

TEST(IoSubsystemActor, ConcurrentBatchesQueueOnTheDisk) {
  desp::Scheduler sched;
  IoSubsystemActor io(&sched, storage::DiskParameters{5.0, 0.0, 0.0});
  std::vector<int> order;
  io.Execute({storage::PageIo{storage::PageIo::Kind::kRead, 1}},
             [&] { order.push_back(1); });
  io.Execute({storage::PageIo{storage::PageIo::Kind::kRead, 100}},
             [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sched.Now(), 10.0);
  EXPECT_GT(io.DiskUtilization(), 0.9);
}

TEST(NetworkActor, FiniteThroughputDelays) {
  desp::Scheduler sched;
  NetworkActor net(&sched, 1.0);  // 1 MB/s = 1000 bytes/ms
  bool done = false;
  net.Transfer(4096, [&] { done = true; });
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sched.Now(), 4.096, 1e-9);
  EXPECT_EQ(net.bytes_transferred(), 4096u);
  EXPECT_FALSE(net.infinite());
}

TEST(NetworkActor, InfiniteThroughputIsImmediate) {
  desp::Scheduler sched;
  NetworkActor net(&sched, 0.0);
  bool done = false;
  net.Transfer(1 << 20, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sched.Now(), 0.0);
  EXPECT_TRUE(net.infinite());
  EXPECT_DOUBLE_EQ(net.TransferTime(12345), 0.0);
}

TEST(NetworkActor, TransfersSerializeOnTheLink) {
  desp::Scheduler sched;
  NetworkActor net(&sched, 1.0);
  std::vector<double> completions;
  net.Transfer(1000, [&] { completions.push_back(sched.Now()); });
  net.Transfer(1000, [&] { completions.push_back(sched.Now()); });
  sched.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 1.0);
  EXPECT_DOUBLE_EQ(completions[1], 2.0);
}

TEST(ObjectManagerActor, ResolvesSpans) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  ObjectManagerActor om(&sched, &base, 1024,
                        storage::PlacementPolicy::kOptimizedSequential, 1.0);
  for (ocb::Oid oid = 0; oid < base.NumObjects(); ++oid) {
    const storage::PageSpan span = om.SpanOf(oid);
    EXPECT_NE(span.first, storage::kNullPage);
    EXPECT_GE(span.count, 1u);
    EXPECT_LT(span.first, om.NumPages());
  }
}

TEST(ObjectManagerActor, RelocationMovesToFreshTailPages) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  ObjectManagerActor om(&sched, &base, 1024,
                        storage::PlacementPolicy::kOptimizedSequential, 1.0);
  const uint64_t pages_before = om.NumPages();
  const std::vector<ocb::Oid> moved = {3, 77, 12};
  const auto io = om.ApplyRelocation(moved);
  EXPECT_FALSE(io.pages_to_read.empty());
  EXPECT_FALSE(io.pages_to_write.empty());
  for (storage::PageId p : io.pages_to_read) EXPECT_LT(p, pages_before);
  for (storage::PageId p : io.pages_to_write) EXPECT_GE(p, pages_before);
  for (ocb::Oid oid : moved) {
    EXPECT_GE(om.SpanOf(oid).first, pages_before);
  }
}

TEST(ObjectManagerActor, AdjacencyListsReferencedPages) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  ObjectManagerActor om(&sched, &base, 1024,
                        storage::PlacementPolicy::kOptimizedSequential, 1.0);
  // For a page holding object X with reference to Y, Y's page must appear.
  const ocb::Oid x = 0;
  const storage::PageId xp = om.SpanOf(x).first;
  const auto& refs = base.Object(x).references;
  const auto& adjacent = om.ReferencedPages(xp);
  for (ocb::Oid ref : refs) {
    if (ref == ocb::kNullOid) continue;
    const storage::PageId rp = om.SpanOf(ref).first;
    if (rp == xp) continue;  // same page excluded by construction
    EXPECT_NE(std::find(adjacent.begin(), adjacent.end(), rp),
              adjacent.end())
        << "page of reference " << ref << " missing from adjacency";
  }
  // Adjacency never contains the page itself.
  EXPECT_EQ(std::find(adjacent.begin(), adjacent.end(), xp), adjacent.end());
}

VoodbConfig TinyConfig(bool vm) {
  VoodbConfig cfg;
  cfg.system_class = SystemClass::kCentralized;
  cfg.page_size = 1024;
  cfg.buffer_pages = 8;
  cfg.use_virtual_memory = vm;
  cfg.multiprogramming_level = 1;
  cfg.get_lock_ms = 0.0;
  cfg.release_lock_ms = 0.0;
  cfg.object_cpu_ms = 0.0;
  cfg.clustering_stat_cpu_ms = 0.0;
  return cfg;
}

TEST(BufferingManagerActor, HitAvoidsDisk) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  const VoodbConfig cfg = TinyConfig(false);
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  int completions = 0;
  buf.AccessPage(0, false, [&] { ++completions; });
  sched.Run();
  const uint64_t ios_after_miss = io.total_ios();
  EXPECT_EQ(ios_after_miss, 1u);
  EXPECT_TRUE(buf.Contains(0));
  buf.AccessPage(0, false, [&] { ++completions; });
  sched.Run();
  EXPECT_EQ(io.total_ios(), ios_after_miss);  // hit: no new I/O
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(buf.hits(), 1u);
  EXPECT_EQ(buf.requests(), 2u);
  EXPECT_DOUBLE_EQ(buf.HitRate(), 0.5);
}

TEST(BufferingManagerActor, SpansAccessEveryPage) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  const VoodbConfig cfg = TinyConfig(false);
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  bool done = false;
  buf.AccessSpan(storage::PageSpan{2, 3}, false, [&] { done = true; });
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(io.reads(), 3u);
  EXPECT_TRUE(buf.Contains(2));
  EXPECT_TRUE(buf.Contains(3));
  EXPECT_TRUE(buf.Contains(4));
}

TEST(BufferingManagerActor, SequentialPrefetchReadsAheadIntoRelocatedPages) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  VoodbConfig cfg = TinyConfig(false);
  cfg.prefetch = PrefetchPolicy::kSequential;
  cfg.prefetch_depth = 2;
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  // A relocation appends fresh tail pages, then drops the buffer (as the
  // clustering manager does).
  const uint64_t pages_before = om.NumPages();
  std::vector<ocb::Oid> moved;
  for (ocb::Oid oid = 0; oid < 60; ++oid) moved.push_back(oid);
  om.ApplyRelocation(moved);
  buf.Drop();
  ASSERT_GE(om.NumPages(), pages_before + 3);
  bool done = false;
  buf.AccessPage(pages_before, false, [&] { done = true; });
  sched.Run();
  EXPECT_TRUE(done);
  // The miss on the first relocated page reads ahead into the next two.
  EXPECT_TRUE(buf.Contains(pages_before + 1));
  EXPECT_TRUE(buf.Contains(pages_before + 2));
  EXPECT_EQ(io.reads(), 3u);
}

TEST(BufferingManagerActor, VmModeReservesReferencedPages) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  VoodbConfig cfg = TinyConfig(true);
  cfg.buffer_pages = 64;
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  ASSERT_TRUE(buf.uses_virtual_memory());
  bool done = false;
  buf.AccessPage(0, false, [&] { done = true; });
  sched.Run();
  EXPECT_TRUE(done);
  // The faulted page is loaded; its referenced pages hold frames but are
  // not loaded (reserved).
  EXPECT_TRUE(buf.Contains(0));
  const auto& adjacent = om.ReferencedPages(0);
  for (storage::PageId p : adjacent) {
    EXPECT_FALSE(buf.Contains(p)) << "reserved page must not be loaded";
  }
  EXPECT_EQ(io.reads(), 1u);  // reservations cost no reads
}

TEST(ClusteringManagerActor, NoPolicyMeansDisabled) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  const VoodbConfig cfg = TinyConfig(false);
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  ClusteringManagerActor cm(&sched, nullptr, &om, &buf, &io);
  EXPECT_FALSE(cm.enabled());
  EXPECT_FALSE(cm.ShouldTrigger());
  bool done = false;
  cm.PerformClustering([&done] { done = true; });
  sched.Run();
  ASSERT_TRUE(done);
  const ClusteringMetrics& metrics = cm.last_metrics();
  EXPECT_FALSE(metrics.reorganized);
  EXPECT_EQ(cm.reorganizations(), 0u);
}

TEST(ClusteringManagerActor, DstcReorganizationChargesIo) {
  const ocb::ObjectBase base = SmallBase();
  desp::Scheduler sched;
  const VoodbConfig cfg = TinyConfig(false);
  ObjectManagerActor om(&sched, &base, cfg.page_size,
                        storage::PlacementPolicy::kOptimizedSequential, 1.0);
  IoSubsystemActor io(&sched, cfg.disk);
  BufferingManagerActor buf(&sched, cfg, &om, &io, desp::RandomStream(1));
  ClusteringManagerActor cm(&sched, std::make_unique<cluster::DstcPolicy>(),
                            &om, &buf, &io);
  EXPECT_TRUE(cm.enabled());
  // Observe a repeated traversal.
  for (int r = 0; r < 4; ++r) {
    cm.OnTransactionStart();
    for (ocb::Oid oid : {ocb::Oid{1}, ocb::Oid{2}, ocb::Oid{3}}) {
      cm.OnObjectAccess(oid, false);
    }
    cm.OnTransactionEnd();
  }
  const uint64_t pages_before = om.NumPages();
  bool done = false;
  cm.PerformClustering([&done] { done = true; });
  sched.Run();
  ASSERT_TRUE(done);
  const ClusteringMetrics& metrics = cm.last_metrics();
  EXPECT_TRUE(metrics.reorganized);
  EXPECT_EQ(metrics.num_clusters, 1u);
  EXPECT_GT(metrics.overhead_ios, 0u);
  EXPECT_GT(metrics.duration_ms, 0.0);
  EXPECT_GT(om.NumPages(), pages_before);
  EXPECT_EQ(cm.total_overhead_ios(), metrics.overhead_ios);
  EXPECT_EQ(cm.reorganizations(), 1u);
  EXPECT_EQ(io.total_ios(), metrics.overhead_ios);
}

}  // namespace
}  // namespace voodb::core

/// \file test_buffer_manager.cpp
/// \brief Tests for the Buffering Manager's page cache.
#include <gtest/gtest.h>

#include <set>

#include "desp/random.hpp"
#include "storage/buffer_manager.hpp"
#include "util/check.hpp"

namespace voodb::storage {
namespace {

uint64_t CountReads(const std::vector<PageIo>& ios) {
  uint64_t n = 0;
  for (const auto& io : ios) n += io.kind == PageIo::Kind::kRead ? 1 : 0;
  return n;
}

uint64_t CountWrites(const std::vector<PageIo>& ios) {
  uint64_t n = 0;
  for (const auto& io : ios) n += io.kind == PageIo::Kind::kWrite ? 1 : 0;
  return n;
}

TEST(BufferManager, MissThenHit) {
  BufferManager buf(4, ReplacementPolicy::kLru);
  const AccessOutcome miss = buf.Access(7, false);
  EXPECT_FALSE(miss.hit);
  ASSERT_EQ(miss.ios.size(), 1u);
  EXPECT_EQ(miss.ios[0].kind, PageIo::Kind::kRead);
  EXPECT_EQ(miss.ios[0].page, 7u);
  const AccessOutcome hit = buf.Access(7, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.ios.empty());
  EXPECT_EQ(buf.stats().hits, 1u);
  EXPECT_EQ(buf.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(buf.stats().HitRate(), 0.5);
}

TEST(BufferManager, CapacityEnforced) {
  BufferManager buf(3, ReplacementPolicy::kLru);
  for (PageId p = 0; p < 10; ++p) buf.Access(p, false);
  EXPECT_EQ(buf.resident_pages(), 3u);
  EXPECT_EQ(buf.stats().evictions, 7u);
}

TEST(BufferManager, DirtyEvictionWritesBack) {
  BufferManager buf(2, ReplacementPolicy::kLru);
  buf.Access(1, true);  // dirty
  buf.Access(2, false);
  const AccessOutcome out = buf.Access(3, false);  // evicts 1 (LRU, dirty)
  EXPECT_EQ(CountWrites(out.ios), 1u);
  EXPECT_EQ(out.ios[0].page, 1u);
  EXPECT_EQ(CountReads(out.ios), 1u);
  EXPECT_EQ(buf.stats().writebacks, 1u);
}

TEST(BufferManager, CleanEvictionIsSilent) {
  BufferManager buf(2, ReplacementPolicy::kLru);
  buf.Access(1, false);
  buf.Access(2, false);
  const AccessOutcome out = buf.Access(3, false);
  EXPECT_EQ(CountWrites(out.ios), 0u);
}

TEST(BufferManager, WriteHitDirtiesExistingPage) {
  BufferManager buf(2, ReplacementPolicy::kLru);
  buf.Access(1, false);
  buf.Access(1, true);  // now dirty via hit
  buf.Access(2, false);
  const AccessOutcome out = buf.Access(3, false);  // evicts 1
  EXPECT_EQ(CountWrites(out.ios), 1u);
}

TEST(BufferManager, FlushAllWritesDirtyOnly) {
  BufferManager buf(4, ReplacementPolicy::kLru);
  buf.Access(1, true);
  buf.Access(2, false);
  buf.Access(3, true);
  std::vector<PageIo> flushed;
  buf.FlushAll(flushed);
  EXPECT_EQ(flushed.size(), 2u);
  // Second flush: nothing dirty.
  std::vector<PageIo> again;
  buf.FlushAll(again);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(buf.resident_pages(), 3u);  // pages stay resident
}

TEST(BufferManager, DropAllDiscardsWithoutWrites) {
  BufferManager buf(4, ReplacementPolicy::kLru);
  buf.Access(1, true);
  buf.DropAll();
  EXPECT_EQ(buf.resident_pages(), 0u);
  EXPECT_FALSE(buf.Contains(1));
  // Re-admitting works fine.
  EXPECT_FALSE(buf.Access(1, false).hit);
}

TEST(BufferManager, ResizeShrinkEvicts) {
  BufferManager buf(4, ReplacementPolicy::kLru);
  for (PageId p = 0; p < 4; ++p) buf.Access(p, true);
  const std::vector<PageIo> evicted = buf.Resize(2);
  EXPECT_EQ(buf.resident_pages(), 2u);
  EXPECT_EQ(CountWrites(evicted), 2u);
  EXPECT_EQ(buf.capacity(), 2u);
}

TEST(BufferManager, ResizeShrinkWritesBackInEvictionOrder) {
  // LRU makes the victim sequence deterministic: the least recently used
  // dirty pages are written back oldest-first.
  BufferManager buf(8, ReplacementPolicy::kLru);
  for (PageId p = 0; p < 8; ++p) buf.Access(p, true);
  const std::vector<PageIo> ios = buf.Resize(3);
  ASSERT_EQ(ios.size(), 5u);
  for (size_t i = 0; i < ios.size(); ++i) {
    EXPECT_EQ(ios[i].kind, PageIo::Kind::kWrite);
    EXPECT_EQ(ios[i].page, static_cast<PageId>(i));
  }
  for (PageId p = 0; p < 5; ++p) EXPECT_FALSE(buf.Contains(p));
  for (PageId p = 5; p < 8; ++p) EXPECT_TRUE(buf.Contains(p));
}

TEST(BufferManager, ResizeGrowKeepsResidentsAndExtendsCapacity) {
  BufferManager buf(2, ReplacementPolicy::kLru);
  buf.Access(1, true);
  buf.Access(2, false);
  const std::vector<PageIo> ios = buf.Resize(6);
  EXPECT_TRUE(ios.empty());  // growing never evicts
  EXPECT_EQ(buf.capacity(), 6u);
  EXPECT_TRUE(buf.Contains(1));
  EXPECT_TRUE(buf.Contains(2));
  EXPECT_EQ(buf.DirtyPages(), 1u);
  // The widened buffer actually holds 6 pages before evicting again.
  for (PageId p = 3; p <= 6; ++p) buf.Access(p, false);
  EXPECT_EQ(buf.resident_pages(), 6u);
  EXPECT_EQ(buf.stats().evictions, 0u);
  buf.Access(7, false);
  EXPECT_EQ(buf.resident_pages(), 6u);
  EXPECT_EQ(buf.stats().evictions, 1u);
}

TEST(BufferManager, ResizeRejectsZeroCapacity) {
  BufferManager buf(4, ReplacementPolicy::kLru);
  EXPECT_THROW(buf.Resize(0), util::Error);
}

/// Shrink/grow across every policy: stats invariants hold, clean pages
/// evict silently, dirty pages write back exactly once, and the buffer
/// keeps working at the new capacity.
class ResizePolicies : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(ResizePolicies, ShrinkGrowCycleKeepsInvariants) {
  BufferManager buf(16, GetParam());
  desp::RandomStream rng(23);
  for (int i = 0; i < 600; ++i) {
    buf.Access(static_cast<PageId>(rng.UniformInt(0, 59)),
               rng.Bernoulli(0.4));
  }
  // Shrink: every eviction of a dirty page produces exactly one write.
  const uint64_t dirty_before = buf.DirtyPages();
  const uint64_t resident_before = buf.resident_pages();
  uint64_t expected_writebacks = buf.stats().writebacks;
  const std::vector<PageIo> shrink_ios = buf.Resize(5);
  EXPECT_EQ(buf.capacity(), 5u);
  EXPECT_EQ(buf.resident_pages(), 5u);
  EXPECT_EQ(CountReads(shrink_ios), 0u);
  const uint64_t evicted = resident_before - 5;
  EXPECT_LE(CountWrites(shrink_ios), evicted);
  EXPECT_GE(dirty_before, CountWrites(shrink_ios));
  EXPECT_EQ(dirty_before - CountWrites(shrink_ios), buf.DirtyPages());
  expected_writebacks += CountWrites(shrink_ios);
  EXPECT_EQ(buf.stats().writebacks, expected_writebacks);
  // No page is written back twice: each write targets a distinct page.
  std::set<PageId> written;
  for (const PageIo& io : shrink_ios) {
    EXPECT_TRUE(written.insert(io.page).second)
        << "page " << io.page << " written back twice";
    EXPECT_FALSE(buf.Contains(io.page));
  }
  // Grow back and keep running: the accounting identity still holds.
  EXPECT_TRUE(buf.Resize(32).empty());
  for (int i = 0; i < 600; ++i) {
    buf.Access(static_cast<PageId>(rng.UniformInt(0, 59)),
               rng.Bernoulli(0.4));
  }
  const BufferStats& s = buf.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_LE(buf.resident_pages(), 32u);
  EXPECT_EQ(s.misses - buf.resident_pages(), s.evictions);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ResizePolicies,
    ::testing::Values(ReplacementPolicy::kRandom, ReplacementPolicy::kFifo,
                      ReplacementPolicy::kLfu, ReplacementPolicy::kLru,
                      ReplacementPolicy::kLruK, ReplacementPolicy::kClock,
                      ReplacementPolicy::kGclock));

TEST(BufferManager, SequentialPrefetchLoadsAhead) {
  BufferManager buf(10, ReplacementPolicy::kLru);
  buf.SetPrefetcher(std::make_unique<SequentialPrefetcher>(2, 100));
  const AccessOutcome out = buf.Access(5, false);
  // Read of 5 plus prefetch of 6 and 7.
  EXPECT_EQ(CountReads(out.ios), 3u);
  EXPECT_TRUE(buf.Contains(6));
  EXPECT_TRUE(buf.Contains(7));
  EXPECT_EQ(buf.stats().prefetch_reads, 2u);
  // Hitting a prefetched page is free.
  EXPECT_TRUE(buf.Access(6, false).hit);
}

TEST(BufferManager, PrefetchRespectsMaxPage) {
  BufferManager buf(10, ReplacementPolicy::kLru);
  buf.SetPrefetcher(std::make_unique<SequentialPrefetcher>(3, 6));
  const AccessOutcome out = buf.Access(5, false);
  EXPECT_EQ(CountReads(out.ios), 2u);  // 5 and 6 only
}

TEST(BufferManager, PrefetchSkipsResidentPages) {
  BufferManager buf(10, ReplacementPolicy::kLru);
  buf.SetPrefetcher(std::make_unique<SequentialPrefetcher>(1, 100));
  buf.Access(6, false);
  const AccessOutcome out = buf.Access(5, false);
  EXPECT_EQ(CountReads(out.ios), 1u);  // 6 already resident
}

TEST(BufferManager, AccountingIdentityHolds) {
  BufferManager buf(8, ReplacementPolicy::kClock);
  desp::RandomStream rng(3);
  for (int i = 0; i < 5000; ++i) {
    buf.Access(static_cast<PageId>(rng.UniformInt(0, 40)), rng.Bernoulli(0.3));
  }
  const BufferStats& s = buf.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_LE(buf.resident_pages(), buf.capacity());
  EXPECT_EQ(s.misses - buf.resident_pages(), s.evictions);
}

TEST(BufferManager, CapacityFarBeyondThePagesCostsNothing) {
  // Page state is sized by the pages touched, never by the capacity: a
  // 2^40-page buffer over 200 pages serves its accesses in a few KB.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  BufferManager buf(kHuge, ReplacementPolicy::kLru, desp::RandomStream(7),
                    /*lru_k=*/2, /*num_pages=*/200);
  desp::RandomStream rng(3);
  std::set<PageId> touched;
  for (int i = 0; i < 500; ++i) {
    const auto page = static_cast<PageId>(rng.UniformInt(0, 199));
    buf.Access(page, rng.Bernoulli(0.3));
    touched.insert(page);
  }
  EXPECT_EQ(buf.resident_pages(), touched.size());
  EXPECT_EQ(buf.stats().misses, touched.size());
  EXPECT_EQ(buf.stats().evictions, 0u);
  EXPECT_TRUE(buf.Resize(kHuge * 2).empty());
  EXPECT_TRUE(buf.Access(*touched.begin(), false).hit);
}

TEST(BufferManager, RejectsZeroCapacity) {
  EXPECT_THROW(BufferManager(0, ReplacementPolicy::kLru), util::Error);
}

/// Property sweep: cache effectiveness — a bigger buffer never yields
/// more misses on the same trace (inclusion-ish property; holds for LRU).
class BufferSizes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferSizes, LruMissesMonotoneInCapacity) {
  auto run = [](uint64_t capacity) {
    BufferManager buf(capacity, ReplacementPolicy::kLru);
    desp::RandomStream rng(17);
    for (int i = 0; i < 8000; ++i) {
      // Zipf-like reuse with locality.
      const PageId p = static_cast<PageId>(rng.Zipf(60, 0.8));
      buf.Access(p, false);
    }
    return buf.stats().misses;
  };
  const uint64_t capacity = GetParam();
  EXPECT_GE(run(capacity), run(capacity * 2));
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, BufferSizes,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

}  // namespace
}  // namespace voodb::storage

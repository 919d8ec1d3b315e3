/// \file test_replacement.cpp
/// \brief Tests for the buffer replacement policies (PGREP) and the
/// direct frame table they run on.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "desp/random.hpp"
#include "storage/replacement.hpp"
#include "util/check.hpp"

namespace voodb::storage {
namespace {

/// Drives a ReplacementEngine through the same frame lifecycle the
/// BufferManager applies (free-list frame reuse, FrameTable residency),
/// exposing the page-level OnAdmit/OnAccess/PickVictim/OnEvict protocol
/// the policy contracts are written against.
class EngineHarness {
 public:
  explicit EngineHarness(ReplacementPolicy policy,
                         desp::RandomStream rng = desp::RandomStream(99),
                         uint32_t lru_k = 2)
      : engine_(policy, rng, lru_k) {}

  void OnAdmit(PageId page) {
    uint32_t frame;
    if (!free_.empty()) {
      frame = free_.back();
      free_.pop_back();
    } else {
      frame = static_cast<uint32_t>(frames_.size());
      frames_.emplace_back();
    }
    frames_[frame].page = page;
    table_.Insert(page, frame);
    engine_.OnAdmit(frames_, frame);
  }

  void OnAccess(PageId page) {
    const uint32_t frame = table_.Find(page);
    ASSERT_NE(frame, kNoFrame) << "access to non-resident page " << page;
    engine_.OnAccess(frames_, frame);
  }

  PageId PickVictim() {
    const uint32_t frame = engine_.PickVictim(frames_, table_);
    return frames_[frame].page;
  }

  void OnEvict(PageId page) {
    const uint32_t frame = table_.Find(page);
    ASSERT_NE(frame, kNoFrame) << "evicting non-resident page " << page;
    engine_.OnEvict(frames_, frame);
    table_.Erase(page);
    frames_[frame].page = kNullPage;
    frames_[frame].dirty = false;
    free_.push_back(frame);
  }

 private:
  ReplacementEngine engine_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_;
  FrameTable table_;
};

TEST(FrameTable, InsertFindErase) {
  FrameTable table;
  EXPECT_EQ(table.Find(7), kNoFrame);
  table.Insert(7, 0);
  table.Insert(9, 1);
  EXPECT_EQ(table.Find(7), 0u);
  EXPECT_EQ(table.Find(9), 1u);
  EXPECT_EQ(table.size(), 2u);
  table.Erase(7);
  EXPECT_EQ(table.Find(7), kNoFrame);
  EXPECT_EQ(table.Find(9), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FrameTable, SurvivesGrowthAndChurn) {
  // Random insert/erase churn over dense keys grows the table past its
  // first size many times over; a std::map shadows the truth.
  FrameTable table;
  std::map<PageId, uint32_t> reference;
  desp::RandomStream rng(5);
  for (int step = 0; step < 20000; ++step) {
    const PageId page = static_cast<PageId>(rng.UniformInt(0, 499));
    const auto it = reference.find(page);
    if (it == reference.end()) {
      const auto frame = static_cast<uint32_t>(step % 1024);
      table.Insert(page, frame);
      reference.emplace(page, frame);
    } else {
      table.Erase(page);
      reference.erase(it);
    }
    if (step % 100 == 0) {
      for (const auto& [p, f] : reference) {
        ASSERT_EQ(table.Find(p), f);
      }
      ASSERT_EQ(table.size(), reference.size());
    }
  }
}

TEST(FrameTable, FindPastTheEndIsAbsent) {
  FrameTable table;
  EXPECT_EQ(table.Find(0), kNoFrame);
  table.Insert(3, 5);
  EXPECT_EQ(table.Find(4), kNoFrame);
  EXPECT_EQ(table.Find(1'000'000), kNoFrame);
  EXPECT_EQ(table.Find(kNullPage), kNoFrame);
}

TEST(FrameTable, GrowthKeepsEveryMapping) {
  FrameTable table;
  // Ascending, then a jump far past the end: each growth must carry the
  // earlier mappings over.
  for (PageId page = 0; page < 300; ++page) {
    table.Insert(page, static_cast<uint32_t>(page * 7));
  }
  table.Insert(100'000, 1);
  EXPECT_EQ(table.size(), 301u);
  for (PageId page = 0; page < 300; ++page) {
    ASSERT_EQ(table.Find(page), page * 7);
  }
  EXPECT_EQ(table.Find(100'000), 1u);
  EXPECT_EQ(table.Find(99'999), kNoFrame);
}

TEST(FrameTable, EraseThenReinsert) {
  FrameTable table;
  table.Insert(42, 1);
  table.Erase(42);
  EXPECT_EQ(table.Find(42), kNoFrame);
  EXPECT_EQ(table.size(), 0u);
  table.Insert(42, 2);
  EXPECT_EQ(table.Find(42), 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FrameTable, ClearForgetsEverything) {
  FrameTable table;
  for (PageId page = 0; page < 100; ++page) {
    table.Insert(page, static_cast<uint32_t>(page));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  for (PageId page = 0; page < 100; ++page) {
    ASSERT_EQ(table.Find(page), kNoFrame);
  }
  table.Insert(7, 3);  // usable again after Clear
  EXPECT_EQ(table.Find(7), 3u);
}

TEST(FrameTable, RejectsDuplicateInsertAndAbsentErase) {
  FrameTable table;
  table.Insert(9, 0);
  EXPECT_THROW(table.Insert(9, 1), util::Error);
  EXPECT_EQ(table.Find(9), 0u);
  EXPECT_THROW(table.Erase(10), util::Error);
  EXPECT_THROW(table.Erase(1'000'000), util::Error);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FrameTable, RejectsSparseIdNamingIt) {
  FrameTable table;
  try {
    table.Insert(kNullPage, 0);
    FAIL() << "kNullPage was indexed";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kNullPage)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(table.Insert(uint64_t{1} << 32, 0), util::Error);
  EXPECT_EQ(table.size(), 0u);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  EngineHarness algo(ReplacementPolicy::kLru);
  algo.OnAdmit(1);
  algo.OnAdmit(2);
  algo.OnAdmit(3);
  algo.OnAccess(1);  // order (MRU..LRU): 1 3 2
  EXPECT_EQ(algo.PickVictim(), 2u);
  algo.OnEvict(2);
  EXPECT_EQ(algo.PickVictim(), 3u);
}

TEST(Lru, MatchesReferenceImplementationOnRandomTrace) {
  EngineHarness algo(ReplacementPolicy::kLru);
  std::list<PageId> reference;  // MRU at front
  desp::RandomStream rng(7);
  std::set<PageId> resident;
  constexpr size_t kCapacity = 8;
  for (int step = 0; step < 5000; ++step) {
    const PageId page = static_cast<PageId>(rng.UniformInt(0, 20));
    if (resident.count(page)) {
      algo.OnAccess(page);
      reference.remove(page);
      reference.push_front(page);
    } else {
      if (resident.size() == kCapacity) {
        const PageId victim = algo.PickVictim();
        ASSERT_EQ(victim, reference.back());
        algo.OnEvict(victim);
        resident.erase(victim);
        reference.pop_back();
      }
      algo.OnAdmit(page);
      resident.insert(page);
      reference.push_front(page);
    }
  }
}

TEST(Fifo, EvictsOldestAdmissionRegardlessOfAccess) {
  EngineHarness algo(ReplacementPolicy::kFifo);
  algo.OnAdmit(1);
  algo.OnAdmit(2);
  algo.OnAdmit(3);
  algo.OnAccess(1);  // FIFO ignores accesses
  EXPECT_EQ(algo.PickVictim(), 1u);
  algo.OnEvict(1);
  EXPECT_EQ(algo.PickVictim(), 2u);
}

TEST(Lfu, EvictsLeastFrequentlyUsed) {
  EngineHarness algo(ReplacementPolicy::kLfu);
  algo.OnAdmit(1);
  algo.OnAdmit(2);
  algo.OnAdmit(3);
  algo.OnAccess(1);
  algo.OnAccess(1);
  algo.OnAccess(3);
  // Counts: 1->3, 2->1, 3->2.
  EXPECT_EQ(algo.PickVictim(), 2u);
  algo.OnEvict(2);
  EXPECT_EQ(algo.PickVictim(), 3u);
}

TEST(Lfu, TiesBrokenByAdmissionOrder) {
  EngineHarness algo(ReplacementPolicy::kLfu);
  algo.OnAdmit(5);
  algo.OnAdmit(6);
  EXPECT_EQ(algo.PickVictim(), 5u);
}

TEST(Lfu, ReadmissionResetsCount) {
  EngineHarness algo(ReplacementPolicy::kLfu);
  algo.OnAdmit(1);
  for (int i = 0; i < 10; ++i) algo.OnAccess(1);
  algo.OnEvict(1);
  algo.OnAdmit(2);
  algo.OnAccess(2);
  algo.OnAdmit(1);  // count restarts at 1
  EXPECT_EQ(algo.PickVictim(), 1u);
}

TEST(LruK, PagesWithoutKAccessesEvictedFirst) {
  EngineHarness algo(ReplacementPolicy::kLruK, desp::RandomStream(99), 2);
  algo.OnAdmit(1);
  algo.OnAccess(1);  // page 1 has 2 accesses -> finite distance
  algo.OnAdmit(2);   // page 2 has 1 access -> infinite distance
  EXPECT_EQ(algo.PickVictim(), 2u);
}

TEST(LruK, EvictsOldestKthAccess) {
  EngineHarness algo(ReplacementPolicy::kLruK, desp::RandomStream(99), 2);
  algo.OnAdmit(1);
  algo.OnAccess(1);  // 1: stamps {1,2}
  algo.OnAdmit(2);
  algo.OnAccess(2);  // 2: stamps {3,4}
  algo.OnAccess(1);  // 1: stamps {2,5} -> K-th stamp 2
  // K-th most recent: page1 = 2, page2 = 3 -> evict page 1.
  EXPECT_EQ(algo.PickVictim(), 1u);
}

TEST(LruK, KEqualsOneBehavesLikeLru) {
  EngineHarness lruk(ReplacementPolicy::kLruK, desp::RandomStream(99), 1);
  lruk.OnAdmit(1);
  lruk.OnAdmit(2);
  lruk.OnAccess(1);
  EXPECT_EQ(lruk.PickVictim(), 2u);
}

TEST(Clock, GivesSecondChance) {
  EngineHarness algo(ReplacementPolicy::kClock);
  algo.OnAdmit(1);
  algo.OnAdmit(2);
  algo.OnAdmit(3);
  // All have their reference weight set; the first sweep clears them and
  // the second finds page 1 (sweep order).
  EXPECT_EQ(algo.PickVictim(), 1u);
  algo.OnEvict(1);
  algo.OnAccess(2);  // refresh 2
  EXPECT_EQ(algo.PickVictim(), 3u);
}

TEST(Gclock, AccessesAccumulateWeight) {
  EngineHarness algo(ReplacementPolicy::kGclock);
  algo.OnAdmit(1);
  algo.OnAdmit(2);
  for (int i = 0; i < 3; ++i) algo.OnAccess(1);  // weight 4
  // Page 2 (weight 1) runs out of chances first.
  EXPECT_EQ(algo.PickVictim(), 2u);
}

TEST(Random, VictimIsAlwaysResident) {
  EngineHarness algo(ReplacementPolicy::kRandom);
  std::set<PageId> resident;
  for (PageId p = 0; p < 10; ++p) {
    algo.OnAdmit(p);
    resident.insert(p);
  }
  for (int i = 0; i < 8; ++i) {
    const PageId victim = algo.PickVictim();
    EXPECT_TRUE(resident.count(victim));
    algo.OnEvict(victim);
    resident.erase(victim);
  }
}

TEST(Random, IsDeterministicInSeed) {
  EngineHarness a(ReplacementPolicy::kRandom, desp::RandomStream(5));
  EngineHarness b(ReplacementPolicy::kRandom, desp::RandomStream(5));
  for (PageId p = 0; p < 20; ++p) {
    a.OnAdmit(p);
    b.OnAdmit(p);
  }
  for (int i = 0; i < 10; ++i) {
    const PageId va = a.PickVictim();
    const PageId vb = b.PickVictim();
    EXPECT_EQ(va, vb);
    a.OnEvict(va);
    b.OnEvict(vb);
  }
}

TEST(ReplacementNames, AllPoliciesNamed) {
  EXPECT_STREQ(ToString(ReplacementPolicy::kRandom), "RANDOM");
  EXPECT_STREQ(ToString(ReplacementPolicy::kFifo), "FIFO");
  EXPECT_STREQ(ToString(ReplacementPolicy::kLfu), "LFU");
  EXPECT_STREQ(ToString(ReplacementPolicy::kLru), "LRU");
  EXPECT_STREQ(ToString(ReplacementPolicy::kLruK), "LRU-K");
  EXPECT_STREQ(ToString(ReplacementPolicy::kClock), "CLOCK");
  EXPECT_STREQ(ToString(ReplacementPolicy::kGclock), "GCLOCK");
}

/// Property sweep: every policy survives a random admit/access/evict
/// workout with frame reuse and always nominates a resident victim.
class AllPolicies : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(AllPolicies, RandomWorkoutMaintainsInvariants) {
  EngineHarness algo(GetParam());
  desp::RandomStream rng(31);
  std::set<PageId> resident;
  constexpr size_t kCapacity = 16;
  for (int step = 0; step < 20000; ++step) {
    const PageId page = static_cast<PageId>(rng.UniformInt(0, 99));
    if (resident.count(page)) {
      algo.OnAccess(page);
      continue;
    }
    if (resident.size() == kCapacity) {
      const PageId victim = algo.PickVictim();
      ASSERT_TRUE(resident.count(victim))
          << ToString(GetParam()) << " nominated non-resident victim";
      algo.OnEvict(victim);
      resident.erase(victim);
    }
    algo.OnAdmit(page);
    resident.insert(page);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, AllPolicies,
    ::testing::Values(ReplacementPolicy::kRandom, ReplacementPolicy::kFifo,
                      ReplacementPolicy::kLfu, ReplacementPolicy::kLru,
                      ReplacementPolicy::kLruK, ReplacementPolicy::kClock,
                      ReplacementPolicy::kGclock));

}  // namespace
}  // namespace voodb::storage

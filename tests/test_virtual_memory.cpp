/// \file test_virtual_memory.cpp
/// \brief Tests for the Texas OS virtual-memory model.
#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <unordered_map>

#include "desp/random.hpp"
#include "storage/virtual_memory.hpp"
#include "util/check.hpp"

namespace voodb::storage {
namespace {

VmParameters Params(uint64_t frames, bool dirty_on_load = true,
                    bool hot = false) {
  VmParameters p;
  p.memory_pages = frames;
  p.dirty_on_load = dirty_on_load;
  p.reservations_enter_hot = hot;
  return p;
}

uint64_t Writes(const std::vector<PageIo>& ios) {
  uint64_t n = 0;
  for (const auto& io : ios) n += io.kind == PageIo::Kind::kWrite ? 1 : 0;
  return n;
}

TEST(VirtualMemory, FaultReadsThenHits) {
  VirtualMemoryModel vm(Params(4));
  const AccessOutcome fault = vm.Touch(3, false);
  EXPECT_FALSE(fault.hit);
  ASSERT_EQ(fault.ios.size(), 1u);
  EXPECT_EQ(fault.ios[0].kind, PageIo::Kind::kRead);
  const AccessOutcome hit = vm.Touch(3, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.ios.empty());
  EXPECT_EQ(vm.stats().faults, 1u);
  EXPECT_EQ(vm.stats().soft_hits, 1u);
}

TEST(VirtualMemory, DirtyOnLoadMakesEvictionsSwap) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/true));
  vm.Touch(1, false);
  vm.Touch(2, false);
  const AccessOutcome out = vm.Touch(3, false);  // evicts page 1
  EXPECT_EQ(Writes(out.ios), 1u);  // swizzled page swaps out
  EXPECT_EQ(vm.stats().swap_writes, 1u);
}

TEST(VirtualMemory, CleanModeEvictsSilently) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  vm.Touch(1, false);
  vm.Touch(2, false);
  const AccessOutcome out = vm.Touch(3, false);
  EXPECT_EQ(Writes(out.ios), 0u);
}

TEST(VirtualMemory, ExplicitWriteDirtiesEvenWithoutSwizzle) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  vm.Touch(1, true);  // store into the page
  vm.Touch(2, false);
  const AccessOutcome out = vm.Touch(3, false);
  EXPECT_EQ(Writes(out.ios), 1u);
}

TEST(VirtualMemory, ReserveAllocatesFrameWithoutRead) {
  VirtualMemoryModel vm(Params(4));
  const std::vector<PageIo> ios = vm.Reserve(9);
  EXPECT_TRUE(ios.empty());
  EXPECT_EQ(vm.resident_frames(), 1u);
  EXPECT_FALSE(vm.IsLoaded(9));  // reserved, not loaded
  EXPECT_EQ(vm.stats().reservations, 1u);
  // Re-reserving is a no-op.
  vm.Reserve(9);
  EXPECT_EQ(vm.stats().reservations, 1u);
}

TEST(VirtualMemory, TouchingReservedPageStillReads) {
  VirtualMemoryModel vm(Params(4));
  vm.Reserve(9);
  const AccessOutcome out = vm.Touch(9, false);
  EXPECT_FALSE(out.hit);  // contents were never loaded
  ASSERT_EQ(out.ios.size(), 1u);
  EXPECT_EQ(out.ios[0].kind, PageIo::Kind::kRead);
  EXPECT_TRUE(vm.IsLoaded(9));
  EXPECT_EQ(vm.resident_frames(), 1u);  // frame was reused
}

TEST(VirtualMemory, ReservedEvictionCostsNothing) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/true,
                               /*hot=*/false));
  vm.Reserve(1);
  vm.Reserve(2);
  const std::vector<PageIo> ios = vm.Reserve(3);  // evicts a reservation
  EXPECT_TRUE(ios.empty());
  EXPECT_EQ(vm.stats().reserved_evictions, 1u);
}

TEST(VirtualMemory, ColdReservationsSelfCannibalize) {
  // With cold insertion (default), reservations evict the LRU end where
  // earlier reservations sit, sparing loaded pages.
  VirtualMemoryModel vm(Params(3, true, /*hot=*/false));
  vm.Touch(1, false);
  vm.Touch(2, false);
  vm.Reserve(10);
  vm.Reserve(11);  // evicts reservation 10, not pages 1/2
  EXPECT_TRUE(vm.IsLoaded(1));
  EXPECT_TRUE(vm.IsLoaded(2));
  EXPECT_EQ(vm.stats().reserved_evictions, 1u);
}

TEST(VirtualMemory, HotReservationsEvictLoadedPages) {
  // With MRU insertion (Linux 2.0 pathology), reservations push loaded
  // pages out — the mechanism behind Figure 11's exponential swap.
  VirtualMemoryModel vm(Params(3, true, /*hot=*/true));
  vm.Touch(1, false);
  vm.Touch(2, false);
  vm.Touch(3, false);
  const std::vector<PageIo> ios = vm.Reserve(10);  // evicts page 1 (dirty)
  EXPECT_EQ(Writes(ios), 1u);
  EXPECT_FALSE(vm.IsLoaded(1));
}

TEST(VirtualMemory, ResizeEvictsDown) {
  VirtualMemoryModel vm(Params(8));
  for (PageId p = 0; p < 8; ++p) vm.Touch(p, false);
  const std::vector<PageIo> ios = vm.Resize(3);
  EXPECT_EQ(vm.resident_frames(), 3u);
  EXPECT_EQ(Writes(ios), 5u);  // dirty-on-load pages swap out
}

TEST(VirtualMemory, DropAllForgetsEverything) {
  VirtualMemoryModel vm(Params(8));
  vm.Touch(1, false);
  vm.Reserve(2);
  vm.DropAll();
  EXPECT_EQ(vm.resident_frames(), 0u);
  EXPECT_FALSE(vm.IsLoaded(1));
}

TEST(VirtualMemory, LruOrderRespectedForLoadedPages) {
  VirtualMemoryModel vm(Params(2, /*dirty_on_load=*/false));
  vm.Touch(1, false);
  vm.Touch(2, false);
  vm.Touch(1, false);  // 1 is MRU
  vm.Touch(3, false);  // evicts 2
  EXPECT_TRUE(vm.IsLoaded(1));
  EXPECT_FALSE(vm.IsLoaded(2));
}

TEST(VirtualMemory, StatsAccounting) {
  VirtualMemoryModel vm(Params(4));
  for (PageId p = 0; p < 6; ++p) vm.Touch(p, false);
  vm.Touch(5, false);
  const VmStats& s = vm.stats();
  EXPECT_EQ(s.touches, 7u);
  EXPECT_EQ(s.faults, 6u);
  EXPECT_EQ(s.soft_hits, 1u);
  EXPECT_EQ(s.reads, s.faults);
}

TEST(VirtualMemory, MemoryFarBeyondThePagesCostsNothing) {
  // Frames and the page table grow with the pages mapped, never with
  // memory_pages: 2^40 frames of "memory" over 300 pages is a few KB.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  VirtualMemoryModel vm(Params(kHuge));
  desp::RandomStream rng(4);
  std::vector<PageIo> ios;
  for (int i = 0; i < 300; ++i) {
    const auto page = static_cast<PageId>(rng.UniformInt(0, 299));
    vm.TouchInto(page, rng.Bernoulli(0.3), ios);
    vm.ReserveInto(static_cast<PageId>(rng.UniformInt(0, 299)), ios);
  }
  const VmStats& s = vm.stats();
  EXPECT_EQ(s.touches, 300u);
  EXPECT_EQ(s.swap_writes, 0u);
  EXPECT_EQ(s.reserved_evictions, 0u);
  EXPECT_EQ(Writes(ios), 0u);
  EXPECT_LE(vm.resident_frames(), 300u);
  EXPECT_TRUE(vm.Resize(kHuge * 2).empty());
}

TEST(VirtualMemory, RejectsZeroFrames) {
  EXPECT_THROW(VirtualMemoryModel(Params(0)), util::Error);
  VirtualMemoryModel vm(Params(4));
  EXPECT_THROW(vm.Resize(0), util::Error);
}

/// The VM model as it was before the frame-array rewrite: an LRU
/// `std::list` of frames plus an `unordered_map` page -> iterator.  Kept
/// as the reference the flat model must match operation by operation.
class ReferenceVm {
 public:
  explicit ReferenceVm(VmParameters params) : params_(params) {}

  AccessOutcome Touch(PageId page, bool write) {
    AccessOutcome outcome;
    ++stats_.touches;
    const auto it = where_.find(page);
    if (it != where_.end() && it->second->state == State::kLoaded) {
      ++stats_.soft_hits;
      outcome.hit = true;
      it->second->dirty = it->second->dirty || write;
      frames_.splice(frames_.begin(), frames_, it->second);
      return outcome;
    }
    ++stats_.faults;
    if (it != where_.end()) {
      it->second->state = State::kLoaded;
      it->second->dirty = params_.dirty_on_load || write;
      frames_.splice(frames_.begin(), frames_, it->second);
    } else {
      Allocate(page, State::kLoaded, params_.dirty_on_load || write,
               outcome.ios);
    }
    ++stats_.reads;
    outcome.ios.push_back(PageIo{PageIo::Kind::kRead, page});
    return outcome;
  }

  std::vector<PageIo> Reserve(PageId page) {
    std::vector<PageIo> ios;
    if (where_.count(page) != 0) return ios;
    if (params_.reservations_enter_hot) {
      Allocate(page, State::kReserved, false, ios);
    } else {
      while (frames_.size() >= params_.memory_pages) EvictOne(ios);
      frames_.push_back(Frame{page, State::kReserved, false});
      where_[page] = std::prev(frames_.end());
    }
    ++stats_.reservations;
    return ios;
  }

  void DropAll() {
    frames_.clear();
    where_.clear();
  }

  std::vector<PageIo> Resize(uint64_t memory_pages) {
    params_.memory_pages = memory_pages;
    std::vector<PageIo> ios;
    while (frames_.size() > params_.memory_pages) EvictOne(ios);
    return ios;
  }

  bool IsLoaded(PageId page) const {
    const auto it = where_.find(page);
    return it != where_.end() && it->second->state == State::kLoaded;
  }
  uint64_t resident_frames() const { return frames_.size(); }
  uint64_t DirtyFrames() const {
    uint64_t n = 0;
    for (const Frame& f : frames_) n += f.dirty ? 1 : 0;
    return n;
  }
  const VmStats& stats() const { return stats_; }

 private:
  enum class State { kLoaded, kReserved };
  struct Frame {
    PageId page;
    State state;
    bool dirty;
  };

  void EvictOne(std::vector<PageIo>& ios) {
    const Frame victim = frames_.back();
    where_.erase(victim.page);
    frames_.pop_back();
    if (victim.state == State::kReserved) {
      ++stats_.reserved_evictions;
      return;
    }
    if (victim.dirty) {
      ++stats_.swap_writes;
      ios.push_back(PageIo{PageIo::Kind::kWrite, victim.page});
    }
  }

  void Allocate(PageId page, State state, bool dirty,
                std::vector<PageIo>& ios) {
    while (frames_.size() >= params_.memory_pages) EvictOne(ios);
    frames_.push_front(Frame{page, state, dirty});
    where_[page] = frames_.begin();
  }

  VmParameters params_;
  std::list<Frame> frames_;  // MRU at front
  std::unordered_map<PageId, std::list<Frame>::iterator> where_;
  VmStats stats_;
};

void ExpectSameIos(const std::vector<PageIo>& want,
                   const std::vector<PageIo>& got, int step) {
  ASSERT_EQ(want.size(), got.size()) << "step " << step;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].kind, got[i].kind) << "step " << step << " io " << i;
    EXPECT_EQ(want[i].page, got[i].page) << "step " << step << " io " << i;
  }
}

void ExpectSameStats(const VmStats& want, const VmStats& got) {
  EXPECT_EQ(want.touches, got.touches);
  EXPECT_EQ(want.soft_hits, got.soft_hits);
  EXPECT_EQ(want.faults, got.faults);
  EXPECT_EQ(want.reads, got.reads);
  EXPECT_EQ(want.swap_writes, got.swap_writes);
  EXPECT_EQ(want.reservations, got.reservations);
  EXPECT_EQ(want.reserved_evictions, got.reserved_evictions);
}

// Random Touch / Reserve / Resize / DropAll sequences drive the flat
// model and the std::list reference side by side: every operation must
// imply the same I/Os in the same order, and the counters must agree.
TEST(VirtualMemory, MatchesTheListReferenceOnRandomOperations) {
  for (const bool hot : {false, true}) {
    for (const bool dirty_on_load : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "reservations_enter_hot=" << hot
                                        << " dirty_on_load=" << dirty_on_load);
      desp::RandomStream rng(hot ? 17 : 5);
      VirtualMemoryModel vm(Params(24, dirty_on_load, hot));
      ReferenceVm ref(Params(24, dirty_on_load, hot));
      std::vector<PageIo> ios;
      for (int step = 0; step < 20000; ++step) {
        const double op = rng.Uniform(0.0, 1.0);
        const auto page = static_cast<PageId>(rng.UniformInt(0, 63));
        if (op < 0.6) {
          const bool write = rng.Bernoulli(0.3);
          ios.clear();
          const bool hit = vm.TouchInto(page, write, ios);
          const AccessOutcome want = ref.Touch(page, write);
          ASSERT_EQ(want.hit, hit) << "step " << step;
          ExpectSameIos(want.ios, ios, step);
        } else if (op < 0.97) {
          ios.clear();
          vm.ReserveInto(page, ios);
          ExpectSameIos(ref.Reserve(page), ios, step);
        } else if (op < 0.995) {
          const auto frames = static_cast<uint64_t>(rng.UniformInt(1, 40));
          ExpectSameIos(ref.Resize(frames), vm.Resize(frames), step);
        } else {
          ref.DropAll();
          vm.DropAll();
        }
        ASSERT_EQ(ref.resident_frames(), vm.resident_frames())
            << "step " << step;
        ASSERT_EQ(ref.IsLoaded(page), vm.IsLoaded(page)) << "step " << step;
      }
      EXPECT_EQ(ref.DirtyFrames(), vm.DirtyFrames());
      ExpectSameStats(ref.stats(), vm.stats());
      EXPECT_GT(vm.stats().swap_writes, 0u);
      EXPECT_GT(vm.stats().reserved_evictions, 0u);
      EXPECT_GT(vm.stats().soft_hits, 0u);
    }
  }
}

}  // namespace
}  // namespace voodb::storage

/// \file test_scheduler_lane.cpp
/// \brief The zero-delay fast lane: bit-identity with a linear-scan
/// reference model, the lane/heap merge, and cancellation storms.
///
/// The lane must never change execution order — every test here pins
/// down one face of that contract: random mixes of zero-delay and
/// positive-delay events at random priorities must execute in the exact
/// (time, priority desc, seq) order of the dumbest possible correct
/// scheduler (linear-scan min over a vector); same-timestamp heap and
/// lane entries must merge under the full key; RunWindow must leave lane
/// events sitting exactly at the window deadline for the next window; and
/// cancelled lane residents must be skimmed or compacted without ever
/// reordering the survivors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "desp/scheduler.hpp"
#include "event_list_param.hpp"

namespace voodb::desp {
namespace {

bool SameKey(const EventKey& a, const EventKey& b) {
  return a.time == b.time && a.priority == b.priority && a.seq == b.seq;
}

/// Collects fired keys through Scheduler::SetTraceHook.
struct KeyTrace {
  std::vector<EventKey> keys;
  static void Hook(void* ctx, const EventKey& key) {
    static_cast<KeyTrace*>(ctx)->keys.push_back(key);
  }
};

void ExpectSameTrace(const std::vector<EventKey>& a,
                     const std::vector<EventKey>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameKey(a[i], b[i]))
        << label << ": divergence at event " << i << ": (" << a[i].time
        << "," << a[i].priority << "," << a[i].seq << ") vs (" << b[i].time
        << "," << b[i].priority << "," << b[i].seq << ")";
  }
}

/// The reference model: a flat vector searched linearly for the full
/// (time, priority desc, seq) minimum.  Too slow to use, too simple to
/// be wrong.
class ReferenceKernel {
 public:
  using Action = std::function<void()>;

  SimTime Now() const { return now_; }

  void Schedule(SimTime delay, Action action, int priority = 0) {
    entries_.push_back(
        Entry{EventKey{now_ + delay, priority, seq_++}, std::move(action)});
  }

  void Run() {
    while (!entries_.empty()) {
      size_t best = 0;
      for (size_t i = 1; i < entries_.size(); ++i) {
        if (FiresBefore(entries_[i].key, entries_[best].key)) best = i;
      }
      Entry entry = std::move(entries_[best]);
      entries_.erase(entries_.begin() + best);
      now_ = entry.key.time;
      keys.push_back(entry.key);
      entry.action();
    }
  }

  std::vector<EventKey> keys;

 private:
  struct Entry {
    EventKey key;
    Action action;
  };
  SimTime now_ = 0.0;
  uint64_t seq_ = 0;
  std::vector<Entry> entries_;
};

/// A self-similar chaos workload: every event may spawn children at
/// zero or positive delays and random priorities.  The RNG is consumed
/// in schedule/execution order, so two kernels walk the same program iff
/// they execute the same total order — any divergence snowballs into a
/// trace mismatch.
template <typename Kernel>
class ChaosProgram {
 public:
  ChaosProgram(Kernel* kernel, uint32_t seed) : kernel_(kernel), rng_(seed) {}

  void SeedRoots(int roots, int budget) {
    for (int i = 0; i < roots; ++i) Spawn(budget);
  }

 private:
  void Spawn(int budget) {
    static const double kDelays[] = {0.0, 0.0, 0.0, 0.5, 1.25};
    const double delay = kDelays[rng_() % 5];
    const int priority = static_cast<int>(rng_() % 5) - 2;
    kernel_->Schedule(
        delay,
        [this, budget] {
          const int kids = static_cast<int>(rng_() % 3);
          for (int k = 0; k < kids && budget > 0; ++k) Spawn(budget - 1);
        },
        priority);
  }

  Kernel* kernel_;
  std::mt19937 rng_;
};

class SchedulerLaneTest : public ::testing::TestWithParam<EventList> {};

TEST_P(SchedulerLaneTest, ZeroDelayEventsTakeTheLaneOnlyWhenEnabled) {
  // Only events at exactly Now() take the lane; the rest go to the heap.
  Scheduler s;
  s.Schedule(0.0, [] {});
  s.Schedule(1.0, [] {});
  EXPECT_EQ(s.LaneEntries(), 1u);
  EXPECT_EQ(s.queue_stats().lane_pushes, 1u);
  EXPECT_EQ(s.queue_stats().heap_pushes, 1u);
  s.Run();
  EXPECT_EQ(s.queue_stats().lane_pops, 1u);
  EXPECT_EQ(s.queue_stats().heap_pops, 1u);
}

TEST_P(SchedulerLaneTest, MergePicksTheQueueHeadWhenItFiresFirst) {
  // Same timestamp split across heap and lane: events scheduled at t=0
  // with a positive delay still sit in the heap at t=1 when the
  // highest-priority of them schedules zero-delay events into the lane.
  // Every heap entry has a lower seq than every lane entry, so the merge
  // must let the heap win priority ties and the lane win on priority.
  Scheduler s;
  std::vector<int> order;
  s.Schedule(
      1.0,
      [&] {
        order.push_back(0);
        EXPECT_EQ(s.LaneEntries(), 0u);
        s.Schedule(0.0, [&] { order.push_back(5); });     // lane, pri 0
        s.Schedule(0.0, [&] { order.push_back(3); }, 5);  // lane, pri 5
        s.Schedule(0.0, [&] { order.push_back(1); }, 7);  // lane, pri 7
        EXPECT_EQ(s.LaneEntries(), 3u);
      },
      9);
  s.Schedule(1.0, [&] { order.push_back(2); }, 5);   // heap, pri 5
  s.Schedule(1.0, [&] { order.push_back(4); });      // heap, pri 0
  s.Schedule(1.0, [&] { order.push_back(6); }, -1);  // heap, pri -1
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(s.queue_stats().heap_pops, 4u);
  EXPECT_EQ(s.queue_stats().lane_pops, 3u);
}

TEST_P(SchedulerLaneTest, LanePriorityRingsFireHighestFirstThenFifo) {
  Scheduler s;
  std::vector<int> order;
  s.Schedule(0.0, [&] { order.push_back(1); }, 1);
  s.Schedule(0.0, [&] { order.push_back(2); }, 0);
  s.Schedule(0.0, [&] { order.push_back(3); }, 2);
  s.Schedule(0.0, [&] { order.push_back(4); }, 0);
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 4}));
}

TEST_P(SchedulerLaneTest, PropertyChaosMatchesReferenceModel) {
  for (uint32_t seed : {1u, 7u, 23u, 91u, 1234u}) {
    KeyTrace kernel;
    {
      Scheduler s;
      s.SetTraceHook(&KeyTrace::Hook, &kernel);
      ChaosProgram<Scheduler> program(&s, seed);
      program.SeedRoots(16, 6);
      s.Run();
      EXPECT_GT(s.queue_stats().lane_pops, 0u) << "seed " << seed;
      EXPECT_GT(s.queue_stats().heap_pops, 0u) << "seed " << seed;
    }
    ReferenceKernel reference;
    {
      ChaosProgram<ReferenceKernel> program(&reference, seed);
      program.SeedRoots(16, 6);
      reference.Run();
    }
    ASSERT_GT(kernel.keys.size(), 16u) << "seed " << seed;
    ExpectSameTrace(kernel.keys, reference.keys, "kernel vs reference");
  }
}

TEST_P(SchedulerLaneTest, RunWindowLeavesLaneEventsExactlyAtTheDeadline) {
  // A partition can be handed a window that ends at (or before) its own
  // clock when another partition's earlier events defined the window
  // start.  Lane events carry time == Now() and must wait for a window
  // that strictly covers them.
  Scheduler s;
  std::vector<int> order;
  s.Schedule(10.0, [&] {
    order.push_back(0);
    s.Schedule(0.0, [&] { order.push_back(1); });
    s.Schedule(0.0, [&] { order.push_back(2); }, 1);
    s.Stop();
  });
  s.Run();
  ASSERT_EQ(order, (std::vector<int>{0}));
  ASSERT_EQ(s.LaneEntries(), 2u);

  EXPECT_EQ(s.RunWindow(10.0), 0u);  // end == lane time: not due yet
  EXPECT_EQ(order, (std::vector<int>{0}));
  SimTime next = 0.0;
  EXPECT_TRUE(s.PeekNextTime(&next));
  EXPECT_DOUBLE_EQ(next, 10.0);

  EXPECT_EQ(s.RunWindow(10.5), 2u);  // now strictly inside the window
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(s.Now(), 10.0);  // clock stays at the last event
}

TEST_P(SchedulerLaneTest, RunUntilExecutesLaneEventsAtTheDeadline) {
  // RunUntil's contract is inclusive: zero-delay chains spawned by an
  // event at exactly `deadline` run to exhaustion before it returns.
  Scheduler s;
  std::vector<int> order;
  s.Schedule(2.0, [&] {
    order.push_back(1);
    s.Schedule(0.0, [&] {
      order.push_back(2);
      s.Schedule(0.0, [&] { order.push_back(3); });
    });
  });
  s.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST_P(SchedulerLaneTest, LaneCancelStormKeepsTheLaneCompacted) {
  // The lane analogue of the re-armed-timeout storm: cancelled lane
  // residents are lazily removed, and the per-structure compaction bound
  // keeps the documented QueueEntries() < 2 * PendingEvents() + 1
  // invariant through every Cancel.
  Scheduler s;
  std::vector<int> fired;
  s.Schedule(1.0, [&] {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
      handles.push_back(s.Schedule(0.0, [&fired, i] { fired.push_back(i); }));
    }
    for (size_t i = 0; i < handles.size(); ++i) {
      if (i % 16 == 0) continue;  // keep a few survivors
      EXPECT_TRUE(s.Cancel(handles[i]));
      EXPECT_LT(s.QueueEntries(), 2 * s.PendingEvents() + 1)
          << "cancel " << i;
    }
  });
  s.Run();
  // The survivors fire in their original FIFO (= seq) order.
  std::vector<int> expected;
  for (int i = 0; i < 200; i += 16) expected.push_back(i);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_GT(s.queue_stats().compactions, 0u);
}

TEST_P(SchedulerLaneTest, CompactionNeverReordersSurvivingKeys) {
  // Storm both structures at once — far-future heap events and
  // zero-delay lane events, cancelling enough of each to force Compact()
  // and CompactLane() — then check the survivors fire in exact key order.
  Scheduler s;
  KeyTrace trace;
  s.SetTraceHook(&KeyTrace::Hook, &trace);
  std::vector<EventKey> survivors;
  std::vector<EventHandle> timeouts;
  for (int i = 0; i < 64; ++i) {  // seq i
    timeouts.push_back(s.Schedule(100.0 + i, [] {}, i % 3));
    if (i % 7 == 0) {
      survivors.push_back({100.0 + i, i % 3, static_cast<uint64_t>(i)});
    }
  }
  s.Schedule(1.0, [&] {  // seq 64
    std::vector<EventHandle> continuations;
    for (int i = 0; i < 64; ++i) {  // seq 65 + i
      continuations.push_back(s.Schedule(0.0, [] {}, i % 3));
      if (i % 5 == 0) {
        survivors.push_back({1.0, i % 3, static_cast<uint64_t>(65 + i)});
      }
    }
    for (size_t i = 0; i < continuations.size(); ++i) {
      if (i % 5 != 0) s.Cancel(continuations[i]);
    }
    for (size_t i = 0; i < timeouts.size(); ++i) {
      if (i % 7 != 0) s.Cancel(timeouts[i]);
    }
  });
  s.Run();
  EXPECT_GT(s.queue_stats().compactions, 0u);
  // The storm event fires first; the survivors it left follow in key
  // order (keys are not monotone across a trace — an event can spawn a
  // higher-priority sibling at its own timestamp).
  std::sort(survivors.begin(), survivors.end(), FiresBefore);
  survivors.insert(survivors.begin(), EventKey{1.0, 0, 64});
  ExpectSameTrace(trace.keys, survivors, "post-compaction survivors");
}

TEST_P(SchedulerLaneTest, ReservePresizesWithoutChangingBehavior) {
  KeyTrace reserved_trace, plain_trace;
  {
    Scheduler s;
    s.Reserve(1024);
    EXPECT_GE(s.ArenaCapacity(), 1024u);
    s.SetTraceHook(&KeyTrace::Hook, &reserved_trace);
    ChaosProgram<Scheduler> program(&s, 42);
    program.SeedRoots(8, 5);
    s.Run();
  }
  {
    Scheduler s;
    s.SetTraceHook(&KeyTrace::Hook, &plain_trace);
    ChaosProgram<Scheduler> program(&s, 42);
    program.SeedRoots(8, 5);
    s.Run();
  }
  ExpectSameTrace(reserved_trace.keys, plain_trace.keys,
                  "reserved vs unreserved");
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SchedulerLaneTest,
                         ::testing::Values(EventList::kBinaryHeap),
                         EventListName);

}  // namespace
}  // namespace voodb::desp

/// \file test_event_queue.cpp
/// \brief The binary-heap EventQueue's ordering, and the scheduler
/// property test against a naive sorted-vector reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "desp/event_queue.hpp"
#include "desp/random.hpp"
#include "desp/scheduler.hpp"
#include "event_list_param.hpp"

namespace voodb::desp {
namespace {

class EventQueueTest : public ::testing::TestWithParam<EventList> {};

TEST_P(EventQueueTest, DrainsInKeyOrderWithTies) {
  EventQueue queue;
  RandomStream rng(17);
  std::vector<QueuedEvent> events;
  for (uint32_t i = 0; i < 2000; ++i) {
    EventKey key;
    key.time = static_cast<double>(rng.UniformInt(0, 50));  // many ties
    key.priority = static_cast<int>(rng.UniformInt(-2, 2));
    key.seq = i;
    events.push_back(QueuedEvent{key, i});
    queue.Push(events.back());
  }
  std::vector<QueuedEvent> expected = events;
  std::sort(expected.begin(), expected.end(),
            [](const QueuedEvent& a, const QueuedEvent& b) {
              return FiresBefore(a.key, b.key);
            });
  for (const QueuedEvent& want : expected) {
    ASSERT_FALSE(queue.Empty());
    const QueuedEvent min = queue.Min();
    const QueuedEvent got = queue.PopMin();
    EXPECT_EQ(min.slot, got.slot);
    EXPECT_EQ(got.slot, want.slot);
  }
  EXPECT_TRUE(queue.Empty());
}

TEST_P(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue queue;
  RandomStream rng(99);
  std::vector<QueuedEvent> reference;  // sorted ascending
  double now = 0.0;
  uint64_t seq = 0;
  uint32_t slot = 0;
  for (int op = 0; op < 5000; ++op) {
    if (queue.Empty() || rng.Bernoulli(0.6)) {
      EventKey key;
      // Never schedule into the past, like the scheduler guarantees.
      key.time = now + rng.Uniform(0.0, 20.0);
      key.priority = static_cast<int>(rng.UniformInt(-1, 1));
      key.seq = seq++;
      const QueuedEvent event{key, slot++};
      queue.Push(event);
      reference.insert(
          std::upper_bound(reference.begin(), reference.end(), event,
                           [](const QueuedEvent& a, const QueuedEvent& b) {
                             return FiresBefore(a.key, b.key);
                           }),
          event);
    } else {
      const QueuedEvent got = queue.PopMin();
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(got.slot, reference.front().slot);
      now = got.key.time;
      reference.erase(reference.begin());
    }
    EXPECT_EQ(queue.Size(), reference.size());
  }
}

TEST_P(EventQueueTest, ClearEmptiesAndStaysUsable) {
  EventQueue queue;
  for (uint32_t i = 0; i < 100; ++i) {
    queue.Push(QueuedEvent{EventKey{static_cast<double>(i), 0, i}, i});
  }
  queue.Clear();
  EXPECT_TRUE(queue.Empty());
  queue.Push(QueuedEvent{EventKey{1.0, 0, 0}, 7});
  EXPECT_EQ(queue.PopMin().slot, 7u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EventQueueTest,
                         ::testing::Values(EventList::kBinaryHeap),
                         EventListName);

// --- Randomized property test: Scheduler vs a naive reference model --------

/// The reference semantics of the scheduler: a sorted vector of live
/// events popped front-first.  Deliberately naive — no lazy deletion, no
/// arena, no fast lane — so any disagreement implicates the real kernel.
class ReferenceModel {
 public:
  struct Event {
    EventKey key;
    uint64_t id;
  };

  void Schedule(double now, SimTime delay, int priority, uint64_t id) {
    Event event{EventKey{now + delay, priority, seq_++}, id};
    events_.insert(std::upper_bound(events_.begin(), events_.end(), event,
                                    [](const Event& a, const Event& b) {
                                      return FiresBefore(a.key, b.key);
                                    }),
                   event);
  }

  bool Cancel(uint64_t id) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->id == id) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Pops the next event id, or UINT64_MAX when drained.
  uint64_t Step(double* now) {
    if (events_.empty()) return UINT64_MAX;
    const Event event = events_.front();
    events_.erase(events_.begin());
    *now = event.key.time;
    return event.id;
  }

  size_t Pending() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  uint64_t seq_ = 0;
};

class SchedulerPropertyTest : public ::testing::TestWithParam<EventList> {};

TEST_P(SchedulerPropertyTest, MatchesReferenceModelUnderRandomOps) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Scheduler scheduler;
    ReferenceModel reference;
    RandomStream rng(seed);
    std::vector<uint64_t> fired_real;
    std::vector<uint64_t> fired_reference;
    struct Live {
      EventHandle handle;
      uint64_t id;
    };
    std::vector<Live> live;
    uint64_t next_id = 0;

    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.5) {
        // Schedule.
        const SimTime delay = rng.Bernoulli(0.2)
                                  ? 0.0  // same-instant events
                                  : rng.Uniform(0.0, 100.0);
        const int priority = static_cast<int>(rng.UniformInt(-2, 2));
        const uint64_t id = next_id++;
        EventHandle handle = scheduler.Schedule(
            delay, [id, &fired_real] { fired_real.push_back(id); }, priority);
        reference.Schedule(scheduler.Now(), delay, priority, id);
        live.push_back({std::move(handle), id});
      } else if (dice < 0.75 && !live.empty()) {
        // Cancel a random outstanding handle (it may have fired already).
        const size_t pick =
            static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        Live target = std::move(live[pick]);
        live.erase(live.begin() + pick);
        const bool was_pending = target.handle.pending();
        EXPECT_EQ(scheduler.Cancel(target.handle), was_pending);
        EXPECT_EQ(reference.Cancel(target.id), was_pending);
        EXPECT_FALSE(target.handle.pending());
      } else {
        // Step.
        double ref_now = scheduler.Now();
        const uint64_t ref_id = reference.Step(&ref_now);
        const bool stepped = scheduler.Step();
        ASSERT_EQ(stepped, ref_id != UINT64_MAX);
        if (stepped) {
          fired_reference.push_back(ref_id);
          ASSERT_EQ(fired_real.size(), fired_reference.size());
          EXPECT_EQ(fired_real.back(), fired_reference.back());
          EXPECT_DOUBLE_EQ(scheduler.Now(), ref_now);
        }
      }
      ASSERT_EQ(scheduler.PendingEvents(), reference.Pending());
    }

    // Drain both completely and compare the full firing order.
    for (;;) {
      double ref_now = 0.0;
      const uint64_t ref_id = reference.Step(&ref_now);
      const bool stepped = scheduler.Step();
      ASSERT_EQ(stepped, ref_id != UINT64_MAX);
      if (!stepped) break;
      fired_reference.push_back(ref_id);
    }
    EXPECT_EQ(fired_real, fired_reference) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SchedulerPropertyTest,
                         ::testing::Values(EventList::kBinaryHeap),
                         EventListName);

// --- Intrusive-handle edge cases --------------------------------------------

TEST(SchedulerHandles, CancelOnFiredHandleIsSafeNoOp) {
  Scheduler s;
  EventHandle h = s.Schedule(1.0, [] {});
  s.Run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.Cancel(h));
}

TEST(SchedulerHandles, CancelOnMovedFromHandleIsSafeNoOp) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.Schedule(1.0, [&] { ran = true; });
  EventHandle moved = std::move(h);
  EXPECT_FALSE(h.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(s.Cancel(h));  // moved-from: no-op, event stays armed
  EXPECT_TRUE(moved.pending());
  s.Run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(s.Cancel(moved));  // fired by now
}

TEST(SchedulerHandles, StaleHandleDoesNotCancelSlotReuse) {
  // After an event fires, its arena slot is recycled; a stale handle to
  // the fired event must not affect the new occupant.
  Scheduler s;
  EventHandle first = s.Schedule(1.0, [] {});
  s.Run();
  bool second_ran = false;
  EventHandle second = s.Schedule(1.0, [&] { second_ran = true; });
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(s.Cancel(first));  // generation mismatch: no-op
  EXPECT_TRUE(second.pending());
  s.Run();
  EXPECT_TRUE(second_ran);
}

TEST(SchedulerHandles, DefaultConstructedHandleIsInert) {
  Scheduler s;
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.Cancel(h));
}

// --- Lazy-delete compaction --------------------------------------------------

TEST(SchedulerCompaction, CancelledEntriesNeverExceedHalfTheQueue) {
  Scheduler s;
  std::vector<EventHandle> handles;
  handles.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    handles.push_back(s.Schedule(static_cast<double>((i * 17) % 101), [] {}));
  }
  // Cancel everything but one; without compaction the queue would keep
  // all 4096 entries until they surface.
  for (size_t i = 0; i + 1 < handles.size(); ++i) {
    EXPECT_TRUE(s.Cancel(handles[i]));
    EXPECT_LE(s.QueueEntries(), 2 * s.PendingEvents() + 1);
  }
  EXPECT_EQ(s.PendingEvents(), 1u);
  EXPECT_LE(s.QueueEntries(), 3u);
  int fired = 0;
  while (s.Step()) ++fired;
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerCompaction, CompactionPreservesFiringOrder) {
  Scheduler s;
  RandomStream rng(5);
  std::vector<EventHandle> handles;
  std::vector<int> expected;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>(rng.UniformInt(0, 200));
    handles.push_back(s.Schedule(t, [i, &fired] { fired.push_back(i); }));
  }
  // Cancel two thirds (forces several compactions).
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0) {
      s.Cancel(handles[i]);
    }
  }
  for (int i = 0; i < 1000; i += 3) expected.push_back(i);
  s.Run();
  // Survivors fire in (time, seq) order; since seq order equals index
  // order here, a stable sort of indices by their times matches.
  std::vector<int> sorted = expected;
  // Recompute times deterministically with a fresh stream.
  RandomStream rng2(5);
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) {
    times.push_back(static_cast<double>(rng2.UniformInt(0, 200)));
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  EXPECT_EQ(fired, sorted);
}

}  // namespace
}  // namespace voodb::desp

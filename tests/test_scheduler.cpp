/// \file test_scheduler.cpp
/// \brief Tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desp/scheduler.hpp"
#include "event_list_param.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

class SchedulerTest : public ::testing::TestWithParam<EventList> {};

TEST_P(SchedulerTest, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_DOUBLE_EQ(s.Now(), 0.0);
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_FALSE(s.Step());
}

TEST_P(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.Schedule(3.0, [&] { order.push_back(3); });
  s.Schedule(1.0, [&] { order.push_back(1); });
  s.Schedule(2.0, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.Now(), 3.0);
  EXPECT_EQ(s.ExecutedEvents(), 3u);
}

TEST_P(SchedulerTest, SimultaneousEventsByPriorityThenFifo) {
  Scheduler s;
  std::vector<std::string> order;
  s.Schedule(1.0, [&] { order.push_back("low-first"); }, 0);
  s.Schedule(1.0, [&] { order.push_back("high"); }, 5);
  s.Schedule(1.0, [&] { order.push_back("low-second"); }, 0);
  s.Run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"high", "low-first", "low-second"}));
}

TEST_P(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler s;
  double seen = -1.0;
  s.Schedule(2.5, [&] { seen = s.Now(); });
  s.Run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST_P(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler s;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(s.Now());
    if (times.size() < 5) s.Schedule(1.0, chain);
  };
  s.Schedule(1.0, chain);
  s.Run();
  EXPECT_EQ(times, (std::vector<double>{1, 2, 3, 4, 5}));
}

TEST_P(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.Schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(s.Cancel(h));
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.Cancel(h));  // double cancel
  s.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.ExecutedEvents(), 0u);
}

TEST_P(SchedulerTest, CancelUpdatesPendingCount) {
  Scheduler s;
  EventHandle h1 = s.Schedule(1.0, [] {});
  s.Schedule(2.0, [] {});
  EXPECT_EQ(s.PendingEvents(), 2u);
  s.Cancel(h1);
  EXPECT_EQ(s.PendingEvents(), 1u);
  s.Run();
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST_P(SchedulerTest, CannotCancelFiredEvent) {
  Scheduler s;
  EventHandle h = s.Schedule(1.0, [] {});
  s.Run();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(s.Cancel(h));
}

TEST_P(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.Schedule(t, [&, t] { times.push_back(t); });
  }
  s.RunUntil(2.5);
  EXPECT_EQ(times, (std::vector<double>{1, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.5);
  EXPECT_EQ(s.PendingEvents(), 2u);
  s.Run();
  EXPECT_EQ(times.size(), 4u);
}

TEST_P(SchedulerTest, RunUntilAdvancesTheClockPastADrainedList) {
  // The clock reaches the deadline even when no event lies before it, so
  // a caller can align idle schedulers on one clock.
  Scheduler s;
  s.RunUntil(3.0);
  EXPECT_DOUBLE_EQ(s.Now(), 3.0);
  s.Schedule(1.0, [] {});
  s.RunUntil(7.5);
  EXPECT_EQ(s.ExecutedEvents(), 1u);
  EXPECT_DOUBLE_EQ(s.Now(), 7.5);
}

TEST_P(SchedulerTest, RunUntilExecutesEventsExactlyAtDeadline) {
  Scheduler s;
  bool ran = false;
  s.Schedule(2.0, [&] { ran = true; });
  s.RunUntil(2.0);
  EXPECT_TRUE(ran);
}

TEST_P(SchedulerTest, StopHaltsRun) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(i, [&] {
      ++count;
      if (count == 3) s.Stop();
    });
  }
  s.Run();
  EXPECT_EQ(count, 3);
  s.Run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST_P(SchedulerTest, RejectsSchedulingInThePast) {
  Scheduler s;
  s.Schedule(5.0, [] {});
  s.Step();
  EXPECT_THROW(s.ScheduleAt(4.0, [] {}), util::Error);
  EXPECT_THROW(s.Schedule(-1.0, [] {}), util::Error);
  bool fired = false;
  s.Schedule(1.0, [&fired] { fired = true; });
  s.Schedule(0.0, [] {});  // one lane entry as well as one heap entry
  const size_t pending = s.PendingEvents();
  const size_t entries = s.QueueEntries();
  const size_t capacity = s.ArenaCapacity();
  struct ThrowsOnCopy {
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) { throw util::Error("copy"); }
    ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
    void operator()() {}
  };
  const ThrowsOnCopy throws_on_copy;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_THROW(s.Schedule(1.0, nullptr), util::Error);
    // An empty std::function is rejected at schedule time, not at fire
    // time (the SmallFunction wrapper preserves its emptiness).
    EXPECT_THROW(s.Schedule(1.0, std::function<void()>{}), util::Error);
    EXPECT_THROW(s.ScheduleAt(6.0, static_cast<void (*)()>(nullptr)),
                 util::Error);
    EXPECT_THROW(s.Schedule(0.0, Scheduler::Action{}), util::Error);
    // A callable that throws while being built in its record frees it.
    EXPECT_THROW(s.Schedule(1.0, throws_on_copy), util::Error);
  }
  // A rejected action leaves no trace: its slot goes back to the arena.
  EXPECT_EQ(s.PendingEvents(), pending);
  EXPECT_EQ(s.QueueEntries(), entries);
  EXPECT_EQ(s.ArenaCapacity(), capacity);
  s.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.ExecutedEvents(), 3u);
}

TEST_P(SchedulerTest, RunUntilRejectsADeadlineInThePast) {
  // Winding the clock back to an earlier deadline would let a later
  // Schedule fire before events that already ran.
  Scheduler s;
  std::vector<double> times;
  for (double t : {5.0, 10.0}) {
    s.Schedule(t, [&, t] { times.push_back(t); });
  }
  s.RunUntil(6.0);
  try {
    s.RunUntil(2.0);
    FAIL() << "RunUntil accepted a deadline before Now()";
  } catch (const util::Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("deadline=2"), std::string::npos) << message;
    EXPECT_NE(message.find("now=6"), std::string::npos) << message;
  }
  EXPECT_DOUBLE_EQ(s.Now(), 6.0);
  s.RunUntil(6.0);  // a deadline equal to Now() is fine
  s.Run();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
}

TEST_P(SchedulerTest, ZeroDelayRunsAtCurrentTime) {
  Scheduler s;
  std::vector<int> order;
  s.Schedule(1.0, [&] {
    order.push_back(1);
    s.Schedule(0.0, [&] { order.push_back(2); });
  });
  s.Schedule(1.0, [&] { order.push_back(3); });
  s.Run();
  // The zero-delay event is scheduled after event 3 at the same time.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 1.0);
}

TEST_P(SchedulerTest, OversizedCapturesSpillToHeapAndStillFire) {
  // Captures beyond SmallFunction's inline budget take the heap path;
  // behaviour (firing, cancellation, eager destruction) must not differ.
  Scheduler s;
  std::array<uint64_t, 32> big{};  // 256 bytes > kInlineBytes
  for (size_t i = 0; i < big.size(); ++i) big[i] = i;
  uint64_t sum = 0;
  s.Schedule(1.0, [big, &sum] {
    for (uint64_t v : big) sum += v;
  });
  auto shared = std::make_shared<int>(7);
  EventHandle cancelled = s.Schedule(2.0, [big, shared, &sum] { sum += 1; });
  EXPECT_EQ(shared.use_count(), 2);
  s.Cancel(cancelled);
  // Cancel releases the oversized capture (and its shared_ptr) eagerly.
  EXPECT_EQ(shared.use_count(), 1);
  s.Run();
  EXPECT_EQ(sum, 32u * 31u / 2u);
}

TEST_P(SchedulerTest, StopFromInsideAnEventHaltsRunUntil) {
  // Stop() called mid-RunUntil must halt after the current event, leave
  // the clock at that event (not the deadline), and keep the remaining
  // events pending — windowed execution relies on exactly this.
  Scheduler s;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.Schedule(t, [&, t] {
      times.push_back(t);
      if (t == 2.0) s.Stop();
    });
  }
  s.RunUntil(10.0);
  EXPECT_EQ(times, (std::vector<double>{1, 2}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
  EXPECT_EQ(s.PendingEvents(), 2u);
  s.RunUntil(10.0);  // resumes
  EXPECT_EQ(times.size(), 4u);
}

TEST_P(SchedulerTest, EventScheduledExactlyAtDeadlineFromInsideAnEventRuns) {
  // An event firing at the deadline may schedule another event at that
  // same instant; RunUntil's contract ("events at exactly `deadline` are
  // executed") covers the newcomer too.
  Scheduler s;
  std::vector<int> order;
  s.Schedule(2.0, [&] {
    order.push_back(1);
    s.Schedule(0.0, [&] { order.push_back(2); });
    s.ScheduleAt(2.0, [&] { order.push_back(3); });
  });
  s.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST_P(SchedulerTest, CancelStormsKeepTheQueueCompacted) {
  // The documented invariant: QueueEntries() < 2 * PendingEvents() + 1
  // after every Cancel.  Re-armed timeouts are the adversarial pattern —
  // schedule far-future events and cancel almost all of them, in waves.
  Scheduler s;
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 200; ++i) {
      handles.push_back(
          s.Schedule(1000.0 + wave * 100.0 + i, [] {}));
    }
    for (size_t i = 0; i < handles.size(); ++i) {
      if (i % 16 == 0) continue;  // keep a few alive across waves
      EXPECT_TRUE(s.Cancel(handles[i]));
      EXPECT_LT(s.QueueEntries(), 2 * s.PendingEvents() + 1)
          << "wave " << wave << " cancel " << i;
    }
  }
  // The survivors still fire, in order.
  uint64_t before = s.ExecutedEvents();
  s.Run();
  EXPECT_EQ(s.ExecutedEvents() - before, 8u * ((200u + 15u) / 16u));
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST_P(SchedulerTest, ManyEventsStressDeterminism) {
  auto run = [] {
    Scheduler s;
    std::vector<uint64_t> trace;
    for (uint64_t i = 0; i < 1000; ++i) {
      s.Schedule(static_cast<double>((i * 37) % 100),
                 [&trace, i] { trace.push_back(i); },
                 static_cast<int>(i % 3));
    }
    s.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

/// A capture that counts how often it is move-constructed.
struct MoveCounter {
  explicit MoveCounter(int* moves) : moves(moves) {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  int* moves;
};

TEST_P(SchedulerTest, ActionsRunWhereTheyAreBuilt) {
  // Each action is built once, in its arena record, and invoked there:
  // neither scheduling nor firing moves it.  A copied-in callable is
  // therefore never moved, and a moved-in one exactly once (into its
  // record).
  Scheduler s;
  int moves = 0;
  std::vector<int> seen;
  MoveCounter counter(&moves);  // non-const, so the capture can move
  const auto action = [counter, &seen] { seen.push_back(*counter.moves); };
  s.Schedule(1.0, action);
  s.ScheduleAt(2.0, action, 3);
  s.Schedule(2.0, [&s, &action] {
    s.Schedule(0.0, action);  // the fast lane builds in place as well
    s.ScheduleAt(s.Now(), action, 1);
  });
  s.Run();
  EXPECT_EQ(seen, (std::vector<int>{0, 0, 0, 0}));
  seen.clear();
  moves = 0;
  s.Schedule(1.0, [counter, &seen] { seen.push_back(*counter.moves); });
  s.Run();
  EXPECT_EQ(seen, (std::vector<int>{1}));
}

TEST_P(SchedulerTest, ActionSurvivesArenaGrowthItCauses) {
  // An action that schedules far more events than the arena holds forces
  // it to grow while the action runs in place; its captures must stay
  // valid afterwards (ASan reports a heap-use-after-free otherwise).
  Scheduler s;
  s.Reserve(8);
  const size_t capacity = s.ArenaCapacity();
  std::array<uint64_t, 2> payload{1, 20};
  uint64_t sum = 0;
  int fired = 0;
  auto action = [&s, &sum, &fired, payload] {
    for (int i = 0; i < 10000; ++i) {
      s.Schedule(i % 2 == 0 ? 0.0 : 1.0 + i, [&fired] { ++fired; });
    }
    for (uint64_t v : payload) sum += v;
  };
  // In place, not the heap path OversizedCapturesSpillToHeapAndStillFire
  // covers: only an inline action lives in the chunk storage that grows.
  static_assert(Scheduler::Action::kFitsInline<decltype(action)>);
  s.Schedule(1.0, std::move(action));
  s.Run();
  EXPECT_GT(s.ArenaCapacity(), capacity);
  EXPECT_EQ(sum, 21u);
  EXPECT_EQ(fired, 10000);
}

TEST_P(SchedulerTest, RunningEventsHandleReadsAsFired) {
  for (const double delay : {0.0, 1.0}) {  // fast lane and heap
    Scheduler s;
    EventHandle self;
    bool pending_inside = true;
    bool cancelled_inside = true;
    int fired = 0;
    self = s.Schedule(delay, [&] {
      pending_inside = self.pending();
      cancelled_inside = s.Cancel(self);
      ++fired;
    });
    EXPECT_TRUE(self.pending());
    s.Run();
    EXPECT_FALSE(pending_inside) << delay;
    EXPECT_FALSE(cancelled_inside) << delay;
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(self.pending());
    EXPECT_EQ(s.PendingEvents(), 0u);
  }
}

TEST_P(SchedulerTest, ThrowingActionsFreeTheirSlots) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 1000; ++i) {
    s.Schedule(i % 2 == 0 ? 0.0 : 1.0,
               [token] { throw util::Error("boom"); });
    EXPECT_THROW(s.Step(), util::Error);
    // The slot's action, with its captures, is destroyed on the way out.
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_EQ(s.QueueEntries(), 0u);
  EXPECT_LE(s.ArenaCapacity(), size_t{Scheduler::kChunkRecords});
  EXPECT_EQ(s.ExecutedEvents(), 1000u);
  bool fired = false;
  s.Schedule(1.0, [&fired] { fired = true; });
  s.Run();
  EXPECT_TRUE(fired);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SchedulerTest,
                         ::testing::Values(EventList::kBinaryHeap),
                         EventListName);

}  // namespace
}  // namespace voodb::desp

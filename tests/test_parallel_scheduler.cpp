/// \file test_parallel_scheduler.cpp
/// \brief Conservative parallel kernel: window semantics, mailbox
/// determinism, and the bit-identity contract at every thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "desp/parallel_scheduler.hpp"
#include "desp/random.hpp"
#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::desp {
namespace {

// --- RunWindow (the per-partition primitive) -------------------------------

/// Which of the scheduler's two event stores a test's events wait in
/// before they fire: the binary heap, the zero-delay lane, or the two in
/// turn.
enum class EventPath { kHeap, kLane, kMixed };

/// True if the `n`-th event posted on `path` goes through the lane.
bool ViaLane(EventPath path, uint64_t n) {
  return path == EventPath::kLane || (path == EventPath::kMixed && n % 2 == 1);
}

/// Posts events on one EventPath.  A lane-bound event is posted as a heap
/// trigger that re-posts it with zero delay, so it still fires at the time
/// asked for, but out of the lane and one execution later.
class Poster {
 public:
  Poster(Scheduler* s, EventPath path) : s_(s), path_(path) {}

  template <typename F>
  EventHandle Post(SimTime delay, F action) {
    if (!ViaLane(path_, posted_++)) return s_->Schedule(delay, action);
    return s_->Schedule(delay, [this, action] {
      ++triggers_;
      s_->Schedule(0.0, action);
    });
  }

  /// Runs one window and returns the posted events it executed, not
  /// counting the lane triggers.
  uint64_t RunWindow(SimTime end) {
    const uint64_t triggers_before = triggers_;
    const uint64_t executed = s_->RunWindow(end);
    return executed - (triggers_ - triggers_before);
  }

 private:
  Scheduler* s_;
  EventPath path_;
  uint64_t posted_ = 0;
  uint64_t triggers_ = 0;
};

class RunWindowTest : public ::testing::TestWithParam<EventPath> {};

TEST_P(RunWindowTest, ExecutesStrictlyBelowEndAndLeavesClockAlone) {
  Scheduler s;
  Poster post(&s, GetParam());
  std::vector<int> fired;
  post.Post(1.0, [&] { fired.push_back(1); });
  post.Post(2.0, [&] { fired.push_back(2); });
  post.Post(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(post.RunWindow(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // Unlike RunUntil, the clock stays at the last executed event so the
  // next window's timestamps are unperturbed.
  EXPECT_DOUBLE_EQ(s.Now(), 2.0);
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST_P(RunWindowTest, EventExactlyAtEndBelongsToTheNextWindow) {
  Scheduler s;
  Poster post(&s, GetParam());
  int fired = 0;
  post.Post(2.0, [&] { ++fired; });
  EXPECT_EQ(post.RunWindow(2.0), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(post.RunWindow(2.0 + 1e-9), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(RunWindowTest, EventsScheduledInsideTheWindowStillRun) {
  Scheduler s;
  Poster post(&s, GetParam());
  std::vector<double> times;
  post.Post(1.0, [&] {
    times.push_back(s.Now());
    post.Post(0.5, [&] { times.push_back(s.Now()); });  // t=1.5 < end
    post.Post(2.0, [&] { times.push_back(s.Now()); });  // t=3.0 >= end
  });
  EXPECT_EQ(post.RunWindow(2.0), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(s.PendingEvents(), 1u);
}

TEST_P(RunWindowTest, NextEventTimeSkipsCancelledEntries) {
  Scheduler s;
  Poster post(&s, GetParam());
  EventHandle doomed = post.Post(1.0, [] {});
  post.Post(2.0, [] {});
  s.Cancel(doomed);
  ASSERT_TRUE(s.HasNextEvent());
  EXPECT_DOUBLE_EQ(s.NextEventTime(), 2.0);
  Scheduler empty;
  EXPECT_FALSE(empty.HasNextEvent());
}

INSTANTIATE_TEST_SUITE_P(AllQueues, RunWindowTest,
                         ::testing::Values(EventPath::kHeap, EventPath::kLane,
                                           EventPath::kMixed));

// --- ParallelScheduler ------------------------------------------------------

TEST(ParallelScheduler, IndependentPartitionsDrainInOneWindow) {
  ParallelScheduler::Options options;
  options.partitions = 3;
  ParallelScheduler ps(options);
  std::vector<int> fired(3, 0);
  for (size_t p = 0; p < 3; ++p) {
    for (int i = 1; i <= 4; ++i) {
      ps.partition(p).Schedule(i * 1.0, [&fired, p] { ++fired[p]; });
    }
  }
  // No edges registered: lookahead is infinite and everything runs in a
  // single window.
  EXPECT_EQ(ps.Run(), 12u);
  EXPECT_EQ(ps.Windows(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(ps.MaxNow(), 4.0);
}

TEST(ParallelScheduler, WindowDerivesFromMinimumEdgeDelay) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  ParallelScheduler ps(options);
  ps.SetEdgeDelay(0, 1, 5.0);
  ps.SetEdgeDelay(1, 0, 3.0);
  EXPECT_DOUBLE_EQ(ps.Lookahead(), 3.0);
  EXPECT_DOUBLE_EQ(ps.Window(), 3.0);
}

TEST(ParallelScheduler, ExplicitWindowMustStayConservative) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  options.window = 10.0;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(3.0);
  EXPECT_THROW(ps.Window(), util::Error);
  ParallelScheduler::Options ok = options;
  ok.window = 2.0;
  ParallelScheduler ps2(ok);
  ps2.SetUniformEdgeDelay(3.0);
  EXPECT_DOUBLE_EQ(ps2.Window(), 2.0);
}

TEST(ParallelScheduler, SendToValidatesEdgeAndDelay) {
  ParallelScheduler::Options options;
  options.partitions = 2;
  ParallelScheduler ps(options);
  EXPECT_THROW(ps.SendTo(0, 1, 1.0, [] {}), util::Error);  // unregistered
  ps.SetEdgeDelay(0, 1, 2.0);
  EXPECT_THROW(ps.SendTo(0, 1, 1.0, [] {}), util::Error);  // below lookahead
  EXPECT_THROW(ps.SetEdgeDelay(0, 1, 0.0), util::Error);   // zero lookahead
  ps.SendTo(0, 1, 2.0, [] {});  // exactly the edge delay is legal
}

TEST(ParallelScheduler, CrossPartitionDeliveryHonorsTimePriorityAndSource) {
  ParallelScheduler::Options options;
  options.partitions = 3;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(1.0);
  std::vector<std::string> order;
  // Both sources mail partition 2 at the same delivery time; priority
  // breaks the first tie, source index the second.
  ps.partition(2).Schedule(0.5, [&] { order.push_back("local"); });
  ps.SendTo(0, 2, 4.0, [&] { order.push_back("from0-low"); }, 0);
  ps.SendTo(1, 2, 4.0, [&] { order.push_back("from1-high"); }, 5);
  ps.SendTo(1, 2, 4.0, [&] { order.push_back("from1-low"); }, 0);
  ps.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"local", "from1-high",
                                             "from0-low", "from1-low"}));
  EXPECT_EQ(ps.CrossEvents(), 3u);
}

// --- Bit-identity: serial vs pooled execution ------------------------------

struct KeyTrace {
  std::vector<EventKey> keys;
  static void Record(void* ctx, const EventKey& key) {
    static_cast<KeyTrace*>(ctx)->keys.push_back(key);
  }
};

bool SameKeys(const std::vector<EventKey>& a, const std::vector<EventKey>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].time, &b[i].time, sizeof(SimTime)) != 0 ||
        a[i].priority != b[i].priority || a[i].seq != b[i].seq) {
      return false;
    }
  }
  return true;
}

/// A ring workload: every partition runs self-rescheduling chains with
/// pseudo-random delays; every few hops it mails the next partition,
/// which replies.  Exercises windows, mailboxes, and seq assignment.
/// Hops travel on `path`: a lane-bound hop fires as a zero-delay
/// follow-up of a heap trigger at the same time.
class RingWorkload {
 public:
  RingWorkload(ParallelScheduler* ps, double lookahead, EventPath path)
      : ps_(ps), lookahead_(lookahead), path_(path) {
    const size_t n = ps->partitions();
    rngs_.reserve(n);
    for (size_t p = 0; p < n; ++p) rngs_.emplace_back(RandomStream(99).Derive(p));
    counts_.assign(n, 0);
    for (size_t p = 0; p < n; ++p) Chain(p, 40);
  }

  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  void Chain(size_t p, int remaining) {
    if (remaining == 0) return;
    const double delay = rngs_[p].Uniform(0.3, 2.0);
    auto hop = [this, p, remaining] {
      ++counts_[p];
      if (remaining % 4 == 0) {
        const size_t to = (p + 1) % ps_->partitions();
        ps_->SendTo(p, to, lookahead_ + 0.25, [this, to] { ++counts_[to]; });
      }
      Chain(p, remaining - 1);
    };
    Scheduler& s = ps_->partition(p);
    if (ViaLane(path_, static_cast<uint64_t>(remaining))) {
      s.Schedule(delay, [&s, hop] { s.Schedule(0.0, hop); });
    } else {
      s.Schedule(delay, hop);
    }
  }

  ParallelScheduler* ps_;
  double lookahead_;
  EventPath path_;
  std::vector<RandomStream> rngs_;
  std::vector<uint64_t> counts_;
};

struct RingRun {
  std::vector<std::vector<EventKey>> traces;
  std::vector<double> clocks;
  std::vector<uint64_t> counts;
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross = 0;
  uint64_t lane_pops = 0;
};

RingRun RunRing(size_t partitions, size_t threads, EventPath path) {
  ParallelScheduler::Options options;
  options.partitions = partitions;
  ParallelScheduler ps(options);
  const double lookahead = 1.5;
  ps.SetUniformEdgeDelay(lookahead);
  std::vector<KeyTrace> traces(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ps.partition(p).SetTraceHook(&KeyTrace::Record, &traces[p]);
  }
  RingWorkload workload(&ps, lookahead, path);
  RingRun run;
  if (threads <= 1) {
    run.executed = ps.Run(nullptr);
  } else {
    exp::ExecutorOptions eo;
    eo.threads = threads;
    exp::ThreadPool pool(eo);
    run.executed = ps.Run(&pool);
  }
  for (size_t p = 0; p < partitions; ++p) {
    run.traces.push_back(std::move(traces[p].keys));
    run.clocks.push_back(ps.partition(p).Now());
    run.lane_pops += ps.partition(p).queue_stats().lane_pops;
  }
  run.counts = workload.counts();
  run.windows = ps.Windows();
  run.cross = ps.CrossEvents();
  return run;
}

class ParallelIdentityTest : public ::testing::TestWithParam<EventPath> {};

TEST_P(ParallelIdentityTest, PooledRunsAreBitIdenticalToSerial) {
  const size_t partitions = 4;
  const RingRun serial = RunRing(partitions, 1, GetParam());
  ASSERT_GT(serial.executed, 160u);  // chains + cross deliveries all ran
  ASSERT_GT(serial.cross, 0u);
  ASSERT_GT(serial.windows, 1u);  // the window protocol actually engaged
  // The hops took the path under test.
  ASSERT_EQ(serial.lane_pops > 0, GetParam() != EventPath::kHeap);
  for (const size_t threads : {2u, 4u, 8u}) {
    const RingRun pooled = RunRing(partitions, threads, GetParam());
    EXPECT_EQ(pooled.executed, serial.executed) << threads << " threads";
    EXPECT_EQ(pooled.windows, serial.windows) << threads << " threads";
    EXPECT_EQ(pooled.cross, serial.cross) << threads << " threads";
    EXPECT_EQ(pooled.lane_pops, serial.lane_pops) << threads << " threads";
    EXPECT_EQ(pooled.counts, serial.counts) << threads << " threads";
    for (size_t p = 0; p < partitions; ++p) {
      EXPECT_TRUE(SameKeys(pooled.traces[p], serial.traces[p]))
          << "partition " << p << " diverged at " << threads << " threads";
      EXPECT_EQ(std::memcmp(&pooled.clocks[p], &serial.clocks[p],
                            sizeof(double)),
                0)
          << "partition " << p << " clock diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueues, ParallelIdentityTest,
                         ::testing::Values(EventPath::kHeap, EventPath::kLane,
                                           EventPath::kMixed));

}  // namespace
}  // namespace voodb::desp

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
    // Every chain starts after the latest partition clock, so a workload
    // added after an earlier drain never mails into a partition's past.
    for (size_t p = 0; p < n; ++p) {
      Chain(p, 40, ps->MaxNow() - ps->partition(p).Now());
    }
  }

  const std::vector<uint64_t>& counts() const { return counts_; }

 private:
  void Chain(size_t p, int remaining, double lead = 0.0) {
    if (remaining == 0) return;
    const double delay = lead + rngs_[p].Uniform(0.3, 2.0);
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

/// Runs `rounds` ring workloads back to back on one kernel and `pool`
/// (null: serial); each round is scheduled after the previous Run()
/// drained.  `counts` sums the rounds.
RingRun RunRingOn(size_t partitions, exp::ThreadPool* pool, EventPath path,
                  int rounds = 1) {
  ParallelScheduler::Options options;
  options.partitions = partitions;
  ParallelScheduler ps(options);
  const double lookahead = 1.5;
  ps.SetUniformEdgeDelay(lookahead);
  std::vector<KeyTrace> traces(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ps.partition(p).SetTraceHook(&KeyTrace::Record, &traces[p]);
  }
  RingRun run;
  run.counts.assign(partitions, 0);
  for (int round = 0; round < rounds; ++round) {
    RingWorkload workload(&ps, lookahead, path);
    run.executed += ps.Run(pool);
    for (size_t p = 0; p < partitions; ++p) {
      run.counts[p] += workload.counts()[p];
    }
  }
  for (size_t p = 0; p < partitions; ++p) {
    run.traces.push_back(std::move(traces[p].keys));
    run.clocks.push_back(ps.partition(p).Now());
    run.lane_pops += ps.partition(p).queue_stats().lane_pops;
  }
  run.windows = ps.Windows();
  run.cross = ps.CrossEvents();
  return run;
}

RingRun RunRing(size_t partitions, size_t threads, EventPath path,
                int rounds = 1) {
  if (threads <= 1) return RunRingOn(partitions, nullptr, path, rounds);
  exp::ExecutorOptions eo;
  eo.threads = threads;
  exp::ThreadPool pool(eo);
  return RunRingOn(partitions, &pool, path, rounds);
}

/// Expects `pooled` to be bit-identical to `serial`.
void ExpectSameRun(const RingRun& pooled, const RingRun& serial,
                   const std::string& label) {
  EXPECT_EQ(pooled.executed, serial.executed) << label;
  EXPECT_EQ(pooled.windows, serial.windows) << label;
  EXPECT_EQ(pooled.cross, serial.cross) << label;
  EXPECT_EQ(pooled.lane_pops, serial.lane_pops) << label;
  EXPECT_EQ(pooled.counts, serial.counts) << label;
  ASSERT_EQ(pooled.traces.size(), serial.traces.size()) << label;
  for (size_t p = 0; p < serial.traces.size(); ++p) {
    EXPECT_TRUE(SameKeys(pooled.traces[p], serial.traces[p]))
        << "partition " << p << " diverged: " << label;
    EXPECT_EQ(std::memcmp(&pooled.clocks[p], &serial.clocks[p],
                          sizeof(double)),
              0)
        << "partition " << p << " clock diverged: " << label;
  }
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
  // 3 threads split 4 partitions unevenly across the crew (given 3
  // hardware threads; the crew never outnumbers them).
  for (const size_t threads : {2u, 3u, 4u, 8u}) {
    ExpectSameRun(RunRing(partitions, threads, GetParam()), serial,
                  std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelIdentityTest, RunTwiceOnOnePoolMatchesSerial) {
  const size_t partitions = 4;
  const RingRun serial = RunRing(partitions, 1, GetParam(), /*rounds=*/2);
  ASSERT_GT(serial.executed, 320u);  // both rounds ran
  for (const size_t threads : {2u, 3u, 4u}) {
    ExpectSameRun(RunRing(partitions, threads, GetParam(), /*rounds=*/2),
                  serial, std::to_string(threads) + " threads, two Run()s");
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueues, ParallelIdentityTest,
                         ::testing::Values(EventPath::kHeap, EventPath::kLane,
                                           EventPath::kMixed));

TEST(ParallelScheduler, CancelledPoolStillDrainsBitIdentically) {
  const RingRun serial = RunRing(4, 1, EventPath::kMixed);
  exp::ExecutorOptions eo;
  eo.threads = 4;
  exp::ThreadPool pool(eo);
  pool.Cancel();  // accepts no crew member: the calling thread runs all
  ExpectSameRun(RunRingOn(4, &pool, EventPath::kMixed), serial,
                "cancelled pool");
}

/// Four partitions with pending work, where partitions 1 and 3 each make
/// a SendTo below the edge delay in the first window.  Returns the
/// message Run() throws, or "" if it returns.
std::string FailingRunMessage(exp::ThreadPool* pool) {
  ParallelScheduler::Options options;
  options.partitions = 4;
  ParallelScheduler ps(options);
  ps.SetUniformEdgeDelay(2.0);
  for (size_t p = 0; p < 4; ++p) {
    ps.partition(p).Schedule(1.0, [] {});
  }
  ps.partition(1).Schedule(1.5, [&ps] { ps.SendTo(1, 2, 0.5, [] {}); });
  ps.partition(3).Schedule(1.5, [&ps] { ps.SendTo(3, 0, 0.5, [] {}); });
  try {
    ps.Run(pool);
  } catch (const util::Error& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelScheduler, PooledWindowRethrowsLikeSerial) {
  const std::string serial = FailingRunMessage(nullptr);
  // The serial loop reaches partition 1 first.
  ASSERT_NE(serial.find("(1 -> 2)"), std::string::npos) << serial;
  for (const size_t threads : {2u, 4u, 8u}) {
    exp::ExecutorOptions eo;
    eo.threads = threads;
    exp::ThreadPool pool(eo);
    EXPECT_EQ(FailingRunMessage(&pool), serial) << threads << " threads";
    // The crew left the pool: it still runs a clean workload.
    ExpectSameRun(RunRingOn(4, &pool, EventPath::kHeap),
                  RunRing(4, 1, EventPath::kHeap),
                  std::to_string(threads) + " threads after a throw");
  }
}

}  // namespace
}  // namespace voodb::desp

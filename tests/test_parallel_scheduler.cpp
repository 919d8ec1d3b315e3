/// \file test_parallel_scheduler.cpp
/// \brief Conservative window kernel: window semantics, mailbox order,
/// and golden event streams of multi-partition runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "desp/parallel_scheduler.hpp"
#include "desp/random.hpp"
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
  SimTime next = 0.0;
  ASSERT_TRUE(s.PeekNextTime(&next));
  EXPECT_DOUBLE_EQ(next, 2.0);
  Scheduler empty;
  EXPECT_FALSE(empty.PeekNextTime(&next));
}

INSTANTIATE_TEST_SUITE_P(AllQueues, RunWindowTest,
                         ::testing::Values(EventPath::kHeap, EventPath::kLane,
                                           EventPath::kMixed));

// --- ParallelScheduler ------------------------------------------------------

TEST(ParallelScheduler, IndependentPartitionsDrainInOneWindow) {
  ParallelScheduler ps(3);
  std::vector<int> fired(3, 0);
  for (size_t p = 0; p < 3; ++p) {
    for (int i = 1; i <= 4; ++i) {
      ps.partition(p).Schedule(i * 1.0, [&fired, p] { ++fired[p]; });
    }
  }
  // No lookahead given: it is infinite and everything runs in a single
  // window.
  EXPECT_EQ(ps.Run(), 12u);
  EXPECT_EQ(ps.Windows(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(ps.MaxNow(), 4.0);
}

TEST(ParallelScheduler, SendToValidatesEdgeAndDelay) {
  EXPECT_THROW(ParallelScheduler(2, 0.0), util::Error);  // zero lookahead
  ParallelScheduler ps(2, 2.0);
  EXPECT_THROW(ps.SendTo(0, 2, 2.0, [] {}), util::Error);  // no partition 2
  EXPECT_THROW(ps.SendTo(0, 1, 1.0, [] {}), util::Error);  // below lookahead
  ps.SendTo(0, 1, 2.0, [] {});  // exactly the lookahead is legal
}

TEST(ParallelScheduler, CrossPartitionDeliveryHonorsTimePriorityAndSource) {
  ParallelScheduler ps(3, 1.0);
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

TEST(ParallelScheduler, TiedMailKeepsSourceThenSendOrder) {
  // Enough mail tied on (time, priority) that an unstable sort would
  // shuffle it: delivery must be source-ascending, then per-edge FIFO.
  ParallelScheduler ps(3, 1.0);
  std::vector<int> order;
  for (const size_t from : {2u, 1u}) {
    for (int i = 0; i < 20; ++i) {
      const int tag = static_cast<int>(from) * 100 + i;
      ps.SendTo(from, 0, 3.0, [&order, tag] { order.push_back(tag); });
    }
  }
  ps.Run();
  std::vector<int> expected;
  for (const int from : {1, 2}) {
    for (int i = 0; i < 20; ++i) expected.push_back(from * 100 + i);
  }
  EXPECT_EQ(order, expected);
}

// --- Goldens: the window loop's exact event stream ------------------------

/// FNV-1a over the bytes of every executed event key (time bits,
/// sign-extended priority, seq).
struct KeyDigest {
  uint64_t h = 0xcbf29ce484222325ull;

  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  }

  static void Hook(void* ctx, const EventKey& key) {
    auto* d = static_cast<KeyDigest*>(ctx);
    uint64_t bits;
    std::memcpy(&bits, &key.time, sizeof(bits));
    d->Fold(bits);
    d->Fold(static_cast<uint64_t>(static_cast<int64_t>(key.priority)));
    d->Fold(key.seq);
  }
};

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
  std::vector<uint64_t> digests;  ///< per partition
  uint64_t executed = 0;
  uint64_t windows = 0;
  uint64_t cross = 0;
  uint64_t lane_pops = 0;
  uint64_t hops = 0;  ///< the workloads' own count of fired hops
};

/// Runs `rounds` ring workloads back to back on one kernel; each round
/// is scheduled after the previous Run() drained.
RingRun RunRing(size_t partitions, EventPath path, int rounds = 1) {
  const double lookahead = 1.5;
  ParallelScheduler ps(partitions, lookahead);
  std::vector<KeyDigest> digests(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    ps.partition(p).SetTraceHook(&KeyDigest::Hook, &digests[p]);
  }
  RingRun run;
  for (int round = 0; round < rounds; ++round) {
    RingWorkload workload(&ps, lookahead, path);
    run.executed += ps.Run();
    for (const uint64_t count : workload.counts()) run.hops += count;
  }
  for (size_t p = 0; p < partitions; ++p) {
    run.digests.push_back(digests[p].h);
    run.lane_pops += ps.partition(p).queue_stats().lane_pops;
  }
  run.windows = ps.Windows();
  run.cross = ps.CrossEvents();
  return run;
}

/// A ring run's expected counters and per-partition digests.
struct RingGolden {
  uint64_t executed;
  uint64_t windows;
  uint64_t cross;
  uint64_t lane_pops;
  std::vector<uint64_t> digests;
};

void ExpectGolden(const RingRun& run, const RingGolden& golden) {
  EXPECT_EQ(run.executed, golden.executed);
  EXPECT_EQ(run.windows, golden.windows);
  EXPECT_EQ(run.cross, golden.cross);
  EXPECT_EQ(run.lane_pops, golden.lane_pops);
  // Every chain hop and every delivered ping ran exactly once; the lane
  // path adds one trigger per lane-bound hop.
  EXPECT_EQ(run.hops + run.lane_pops, run.executed);
  ASSERT_EQ(run.digests.size(), golden.digests.size());
  for (size_t p = 0; p < golden.digests.size(); ++p) {
    EXPECT_EQ(run.digests[p], golden.digests[p]) << "partition " << p;
  }
}

// Recorded from the thread-crew kernel this loop replaced, whose runs at
// 2, 3, 4 and 8 threads were bit-identical to its serial run: the window
// loop must reproduce that event stream exactly.
const RingGolden kOneRound[] = {
    // EventPath::kHeap
    {200, 28, 40, 0,
     {0xf71d9c507d9070ddull, 0x501f96acac94473dull, 0xc1ddac9793c351e2ull,
      0xed8a54ffed788ef4ull}},
    // EventPath::kLane
    {360, 28, 40, 160,
     {0xcd22650c31a08871ull, 0x6cbd66d592e8a0b3ull, 0xd6bdd21a1f853b3eull,
      0x3cc9f3af71b8f607ull}},
    // EventPath::kMixed
    {280, 28, 40, 80,
     {0x4418615e5814ae38ull, 0x4e4ed2643e3289e1ull, 0xe51b7015d4504941ull,
      0xb37d77246be0c7a6ull}},
};
const RingGolden kTwoRounds[] = {
    {400, 56, 80, 0,
     {0x5888dd20065f413dull, 0x945f9f342d1df1b2ull, 0xe9ad68f02837a9d1ull,
      0x69e20bbadeca6b04ull}},
    {720, 56, 80, 320,
     {0x2c3e6f2aee9c6792ull, 0x8cf5a9ef25ed099eull, 0x7ecd4661bba80927ull,
      0xe182cc15e82bf24aull}},
    {560, 56, 80, 160,
     {0xba109709d6f4c2c2ull, 0xad4a44852f1d3199ull, 0x429c04077983233eull,
      0xd6a9ec6176cfcd89ull}},
};

class ParallelIdentityTest : public ::testing::TestWithParam<EventPath> {};

TEST_P(ParallelIdentityTest, PooledRunsAreBitIdenticalToSerial) {
  const RingRun run = RunRing(4, GetParam());
  ASSERT_GT(run.windows, 1u);  // the window protocol actually engaged
  ExpectGolden(run, kOneRound[static_cast<int>(GetParam())]);
}

TEST_P(ParallelIdentityTest, RunTwiceOnOnePoolMatchesSerial) {
  // The second round starts from the first one's drained clocks.
  ExpectGolden(RunRing(4, GetParam(), /*rounds=*/2),
               kTwoRounds[static_cast<int>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(AllQueues, ParallelIdentityTest,
                         ::testing::Values(EventPath::kHeap, EventPath::kLane,
                                           EventPath::kMixed));

TEST(ParallelScheduler, EightPartitionRingMatchesGolden) {
  ExpectGolden(RunRing(8, EventPath::kMixed),
               {560, 30, 80, 160,
                {0xf5dfa559cf8a68d2ull, 0x43b407c6635f5449ull,
                 0x028491f58e1c8df1ull, 0x364fcadb830001b2ull,
                 0x2d0e98857f127a03ull, 0x612021a56daee0f0ull,
                 0x0f2c364c3f038c8full, 0xb4c41050f6e0fecfull}});
}

TEST(ParallelScheduler, PooledWindowRethrowsLikeSerial) {
  // Four partitions with pending work, where partitions 1 and 3 each
  // make a SendTo below the lookahead in the first window.
  ParallelScheduler ps(4, 2.0);
  for (size_t p = 0; p < 4; ++p) {
    ps.partition(p).Schedule(1.0, [] {});
  }
  ps.partition(1).Schedule(1.5, [&ps] { ps.SendTo(1, 2, 0.5, [] {}); });
  ps.partition(3).Schedule(1.5, [&ps] { ps.SendTo(3, 0, 0.5, [] {}); });
  try {
    ps.Run();
    FAIL() << "Run() returned";
  } catch (const util::Error& e) {
    // The window runs partitions in index order: partition 1 throws
    // first, and the error propagates at once.
    const std::string message = e.what();
    EXPECT_NE(message.find("(1 -> 2)"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace voodb::desp

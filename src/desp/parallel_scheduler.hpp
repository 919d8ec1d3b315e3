/// \file parallel_scheduler.hpp
/// \brief Conservative window execution over partitioned schedulers.
///
/// A sharded VOODB run is N event-ordered streams that interact only
/// through the model's fixed latency constants: every cross-partition
/// interaction (a remote sub-transaction request, its ack) takes at least
/// one network page transfer, or one disk service under an infinite
/// network.  That minimum is guaranteed *lookahead* in the Chandy–Misra
/// sense, one value for every edge, and it licenses a window protocol:
///
///   1. Let T be the earliest pending event across all partitions and W
///      the lookahead.  No partition can receive a new event with
///      time < T + W.
///   2. Every partition therefore executes its events with time in
///      [T, T+W) independently of the others.
///   3. Cross-partition sends are buffered in per-edge mailboxes during
///      the window and delivered at the barrier, in a fixed order
///      (target ascending, then stable (time, priority) with per-edge
///      FIFO preserved), before the next window starts.
///
/// The windows run one after another on the calling thread, partitions
/// in index order.  Each partition is the ordinary serial `Scheduler`
/// (deterministic by `(time, priority, seq)`) and barrier delivery order
/// depends only on mailbox contents, so a run is a pure function of its
/// inputs: same event keys, same clocks, same per-partition seq
/// assignment.  (Running the partitions of a window on a thread crew
/// gave the same results but never ran faster: a window holds ~30
/// events of the sharded model, about the cost of the barrier.)
///
/// The scheduler's zero-delay fast lane composes with the protocol
/// unchanged: `PeekNextTime`/`RunWindow` are lane-aware, and a lane
/// event whose timestamp sits at or past a window's `end` (possible when
/// another partition's earlier events defined the window start) waits
/// for a window that strictly covers it — exactly as a queued event
/// would.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "desp/scheduler.hpp"

namespace voodb::desp {

/// N partitioned Schedulers executed under a conservative time-window
/// protocol.  Partitions share nothing but the mailboxes: each keeps its
/// own event queue, slab arena, clock, and seq counter.
class ParallelScheduler {
 public:
  /// \param partitions  serial Schedulers to run, >= 1
  /// \param lookahead   minimum delay of every cross-partition send, > 0;
  ///                    +inf (the default, and always for one partition)
  ///                    declares the partitions independent: every Run()
  ///                    is then one window.
  explicit ParallelScheduler(
      size_t partitions,
      SimTime lookahead = std::numeric_limits<SimTime>::infinity());

  size_t partitions() const { return schedulers_.size(); }
  Scheduler& partition(size_t index) { return *schedulers_[index]; }
  const Scheduler& partition(size_t index) const { return *schedulers_[index]; }

  /// The window width.
  SimTime lookahead() const { return lookahead_; }

  /// Sends `action` to partition `to`, firing `delay` after partition
  /// `from`'s current clock.  Must be called from code executing inside
  /// partition `from`.  `delay` must be >= the lookahead, which keeps
  /// delivery outside the current window.  `from == to` degenerates to a
  /// local Schedule().
  void SendTo(size_t from, size_t to, SimTime delay, Scheduler::Action action,
              int priority = 0);

  /// Runs windows on the calling thread until every partition drains
  /// and no mail is pending; returns the number of events executed.  An
  /// error thrown inside a window propagates at once, from the lowest
  /// partition that throws.
  uint64_t Run();

  /// Max partition clock — how far simulated time has advanced.
  SimTime MaxNow() const;

  uint64_t ExecutedEvents() const;
  /// Number of windows (barriers) executed by Run() calls so far.
  uint64_t Windows() const { return windows_; }
  /// Number of cross-partition events delivered through mailboxes.
  uint64_t CrossEvents() const { return cross_events_; }

 private:
  struct Envelope {
    SimTime time;  ///< absolute delivery time
    int priority;
    Scheduler::Action action;
  };

  /// Drains every mailbox into its target partition, in deterministic
  /// order (between windows).
  void DeliverMail();

  static constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  SimTime lookahead_;
  /// Per-edge mailboxes, a dense n*n matrix indexed [from * n + to].
  std::vector<std::vector<Envelope>> mail_;
  std::vector<Envelope> merged_;  ///< DeliverMail's scratch, reused
  std::vector<uint32_t> order_;   ///< DeliverMail's sort order, reused
  uint64_t windows_ = 0;
  uint64_t cross_events_ = 0;
};

}  // namespace voodb::desp

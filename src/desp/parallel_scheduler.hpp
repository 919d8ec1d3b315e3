/// \file parallel_scheduler.hpp
/// \brief Conservative parallel discrete-event execution over partitioned
/// schedulers.
///
/// One big VOODB run is a single event-ordered stream, so it cannot be
/// farmed out the way replications are.  What it *can* exploit is the
/// model's fixed latency constants: every cross-partition interaction
/// (shipping a page between storage servers, a remote sub-transaction
/// request) takes at least the disk-service + network-transfer time that
/// the configuration pins down.  That minimum is guaranteed *lookahead*
/// in the Chandy–Misra sense, and it licenses a window protocol:
///
///   1. Let T be the earliest pending event across all partitions and W
///      the minimum cross-partition delay.  No partition can receive a
///      new event with time < T + W.
///   2. Every partition therefore executes its events with time in
///      [T, T+W) independently — on a crew of threads, no locks on the hot
///      path.
///   3. Cross-partition sends are buffered in per-edge mailboxes during
///      the window and delivered at the barrier, in a fixed order
///      (target ascending, then stable (time, priority) with per-edge
///      FIFO preserved), before the next window starts.
///
/// Because each partition's intra-window execution is the ordinary serial
/// `Scheduler` (deterministic by `(time, priority, seq)`), and barrier
/// delivery order depends only on mailbox *contents* — never on thread
/// timing — the execution is bit-identical to a 1-thread run at any
/// thread count: same event keys, same clocks, same per-partition seq
/// assignment.  The farm's identity contract extends to single runs.
///
/// The scheduler's zero-delay fast lane composes with the protocol
/// unchanged: `NextEventTime`/`RunWindow` are lane-aware, and a lane
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

namespace voodb::exp {
class ThreadPool;
}  // namespace voodb::exp

namespace voodb::desp {

/// N partitioned Schedulers executed under a conservative time-window
/// protocol.  Partitions share nothing on the hot path: each keeps its
/// own event queue, slab arena, clock, and seq counter.
class ParallelScheduler {
 public:
  struct Options {
    size_t partitions = 1;
    /// Explicit window width; 0 derives it from the minimum registered
    /// edge delay.  An explicit window must not exceed that minimum, or
    /// the protocol would no longer be conservative.
    SimTime window = 0.0;
  };

  explicit ParallelScheduler(Options options);

  size_t partitions() const { return schedulers_.size(); }
  Scheduler& partition(size_t index) { return *schedulers_[index]; }
  const Scheduler& partition(size_t index) const { return *schedulers_[index]; }

  /// Registers the minimum simulated delay of any `from` → `to` send —
  /// the edge's lookahead, e.g. disk service + network transfer time of
  /// one page.  Must be > 0 and must be registered before Run(); SendTo
  /// on an unregistered edge is an error.
  void SetEdgeDelay(size_t from, size_t to, SimTime min_delay);

  /// Registers `min_delay` on every ordered pair of distinct partitions.
  void SetUniformEdgeDelay(SimTime min_delay);

  /// Minimum registered edge delay; +inf when no edges are registered
  /// (fully independent partitions).
  SimTime Lookahead() const;

  /// Effective window width: the explicit `Options::window` if set,
  /// otherwise Lookahead().
  SimTime Window() const;

  /// Sends `action` to partition `to`, firing `delay` after partition
  /// `from`'s current clock.  Must be called from code executing inside
  /// partition `from` (its thread owns the mailbox row during a window).
  /// `delay` must be >= the registered edge delay, which keeps delivery
  /// outside the current window.  `from == to` degenerates to a local
  /// Schedule().
  void SendTo(size_t from, size_t to, SimTime delay, Scheduler::Action action,
              int priority = 0);

  /// Runs windows until every partition drains and no mail is pending;
  /// returns the number of events executed.  The windows run on a crew
  /// of min(partitions, pool threads, hardware threads) members that
  /// lives for this call: the calling thread is member 0, and partition
  /// `p` always runs on member `p % crew`.  Between windows member 0
  /// delivers the mail and publishes the next window's end; idle members
  /// spin briefly, then yield their core for a while, then park.  A null `pool`, a single partition or a
  /// one-member crew run the same loop on the calling thread alone —
  /// bit-identical to the pooled run.  A cancelled pool contributes no
  /// members.  An error thrown inside a window is rethrown here, on the
  /// calling thread, once the crew has left the pool: the one from the
  /// lowest failing partition, as a serial run would throw it.  The pool
  /// must be dedicated to this call.
  uint64_t Run(exp::ThreadPool* pool = nullptr);

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

  /// Per-Run() barrier state shared by the crew (parallel_scheduler.cpp).
  struct Crew;

  /// Drains every mailbox into its target partition, in deterministic
  /// order.  Single-threaded (between windows).
  void DeliverMail();

  /// Member 0's loop: mail, window bounds, its own share, the barrier.
  void LeadWindows(Crew& crew);
  /// Members 1..crew-1: run their share of each window until disbanded.
  void FollowWindows(Crew& crew, size_t member);
  /// Runs `member`'s partitions up to the published window end,
  /// recording the first error instead of letting it escape.
  void RunShare(Crew& crew, size_t member);

  static constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  /// Dense n*n matrices indexed [from * n + to].
  std::vector<SimTime> edge_delay_;    ///< +inf = unregistered
  std::vector<std::vector<Envelope>> mail_;
  std::vector<Envelope> merged_;  ///< DeliverMail's scratch, reused
  std::vector<uint32_t> order_;   ///< DeliverMail's sort order, reused
  SimTime explicit_window_ = 0.0;
  uint64_t windows_ = 0;
  uint64_t cross_events_ = 0;
};

}  // namespace voodb::desp

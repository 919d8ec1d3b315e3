/// \file scheduler.hpp
/// \brief The discrete-event scheduler at the heart of DESP.
///
/// The kernel follows the "resource view" of Table 2 in the VOODB paper:
/// active resources are classes whose functioning rules are methods; the
/// scheduler merely orders their activations on the simulated time axis.
/// Events are callables; ties are broken by (priority desc, insertion
/// seq), which makes runs fully deterministic.
///
/// The schedule/fire hot path is allocation-free: event records live in a
/// pooled slab arena of fixed chunks and are referenced by intrusive,
/// generation-counted `EventHandle`s (no per-event `shared_ptr`), the
/// action is a small-buffer-optimized callable (no `std::function` heap
/// spill for actor-sized captures), and the event list itself is a binary
/// heap (`EventQueue`, held by value) moving 32-byte (key, slot) entries.
/// Each action is built once, in its arena record, and runs there: chunks
/// never move, so an action may schedule (and grow the arena) freely, and
/// its slot is recycled only after it returns.
///
/// Beside the heap sits a *zero-delay fast lane* (a calendar-queue-style
/// "now bucket"): events scheduled at exactly `Now()` — the dominant
/// pattern once every object access under a cc::Protocol fires a
/// same-timestamp decision continuation — go into per-priority FIFO
/// rings instead of the O(log n) heap.  Because every lane entry shares
/// `time == Now()`, FIFO order within a ring *is* seq order, ring
/// priority order breaks the priority tie, and `Step()` merges the lane
/// head against the heap head with the full (time, priority desc, seq)
/// comparison — so execution order is exactly the heap-only order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "desp/event_queue.hpp"
#include "desp/small_function.hpp"
#include "util/check.hpp"

namespace voodb::desp {

class Scheduler;

/// A scheduled activation.  Obtained from Scheduler::Schedule*; can be
/// cancelled as long as it has not fired.  A handle is a weak intrusive
/// reference (arena slot + generation): it never owns the event, copying
/// is free, and Cancel / pending() on a fired, cancelled, moved-from or
/// default-constructed handle are safe no-ops.  Handles must not outlive
/// their scheduler.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle&) = default;
  EventHandle& operator=(const EventHandle&) = default;
  /// Moving transfers the reference and resets the source to "no event".
  EventHandle(EventHandle&& other) noexcept
      : scheduler_(other.scheduler_),
        slot_(other.slot_),
        generation_(other.generation_) {
    other.scheduler_ = nullptr;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    scheduler_ = other.scheduler_;
    slot_ = other.slot_;
    generation_ = other.generation_;
    if (&other != this) other.scheduler_ = nullptr;
    return *this;
  }

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Scheduler;
  Scheduler* scheduler_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

/// Cheap per-scheduler event-list operation counters, exposed so the
/// observability layer can register them without adding any hot-path
/// indirection (each is one `uint64_t` increment).
struct QueueStats {
  uint64_t heap_pushes = 0;   ///< entries pushed into the binary heap
  uint64_t heap_pops = 0;     ///< live entries popped from the heap
  uint64_t lane_pushes = 0;   ///< zero-delay entries taken by the fast lane
  uint64_t lane_pops = 0;     ///< live entries popped from the fast lane
  uint64_t skims = 0;         ///< lazily-deleted entries dropped at a head
  uint64_t compactions = 0;   ///< heap/lane rebuilds triggered by Cancel
};

/// Discrete-event scheduler: binary heap + fast lane + slab arena + clock.
class Scheduler {
 public:
  using Action = SmallFunction;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Schedules `action` to run `delay` time units from now.
  /// Higher `priority` fires first among simultaneous events.  `action`
  /// is any `void()` callable (or an `Action`); it is built directly in
  /// the event's arena record.
  template <typename F>
  EventHandle Schedule(SimTime delay, F&& action, int priority = 0) {
    if (!(delay >= 0.0)) RejectDelay(delay);
    return ScheduleAt(now_ + delay, std::forward<F>(action), priority);
  }

  /// Schedules `action` at absolute time `when` (>= Now()).
  template <typename F>
  EventHandle ScheduleAt(SimTime when, F&& action, int priority = 0) {
    if (!(when >= now_)) RejectTime(when);
    const uint32_t slot = AllocSlot();
    Action& stored = Record(slot).action;
    try {
      stored.Emplace(std::forward<F>(action));
    } catch (...) {
      FreeSlot(slot);
      throw;
    }
    if (!stored) RejectEmpty(slot);
    return Enqueue(slot, when, priority);
  }

  /// Cancels a pending event; returns false (a safe no-op) if it already
  /// fired, was already cancelled, or the handle is empty/moved-from.
  bool Cancel(EventHandle& handle);

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Executes the next event.  Returns false when the event list is empty.
  bool Step();

  /// Runs until the event list drains or Stop() is called.
  void Run();

  /// Executes every event up to `deadline` (events at exactly `deadline`
  /// included) and leaves the clock at `deadline`, also when the list
  /// drains first; Stop() leaves it at the last executed event instead.
  /// `deadline` must not lie before Now(): the clock never runs backwards.
  void RunUntil(SimTime deadline);

  /// Executes every event with time strictly below `end` (or until the
  /// list drains or Stop() is called) and returns the number executed.
  /// Unlike RunUntil, the clock is left at the last executed event — it
  /// is *not* advanced to `end` — so consecutive windows compose without
  /// perturbing timestamps.  This is the per-partition primitive of the
  /// conservative parallel protocol (see parallel_scheduler.hpp).
  uint64_t RunWindow(SimTime end);

  /// Stores the time of the next live (non-cancelled) event in `*time`
  /// and returns true, or returns false when none is queued.  Merges the
  /// lane and the heap, and skims lazily-deleted entries, so it is
  /// non-const.
  bool PeekNextTime(SimTime* time);

  /// Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  /// Number of pending (non-cancelled) events.
  size_t PendingEvents() const { return pending_; }

  /// Total number of events executed since construction.
  uint64_t ExecutedEvents() const { return executed_; }

  /// Event-list entries (heap + fast lane) including lazily-deleted
  /// cancelled ones.  The scheduler compacts each structure whenever its
  /// cancelled entries outnumber its live ones, so
  /// QueueEntries() < 2 * PendingEvents() + 1 always holds after a
  /// Cancel.  Exposed for tests and diagnostics.
  size_t QueueEntries() const { return queue_.Size() + lane_size_; }

  /// Fast-lane entries including lazily-deleted cancelled ones.
  /// Exposed for tests and diagnostics.
  size_t LaneEntries() const { return lane_size_; }

  /// Pre-sizes the slab arena (in whole chunks), the binary heap, and the
  /// fast lane for roughly `events` concurrently pending events, so
  /// steady-state runs never allocate on the schedule/fire hot path.
  /// Purely a capacity hint; never changes behavior.
  void Reserve(size_t events);

  /// Records the slab arena holds without allocating (for tests of
  /// Reserve): allocated chunks times kChunkRecords.
  size_t ArenaCapacity() const { return chunks_.size() * kChunkRecords; }

  /// Event records per arena chunk.
  static constexpr uint32_t kChunkRecords = 256;

  /// Event-list operation counters (see QueueStats).  The cells are
  /// stable for the scheduler's lifetime, so observability code can
  /// register pointers to them.
  const QueueStats& queue_stats() const { return stats_; }

  /// Observes every fired event's key, in execution order, before its
  /// action runs.  Used by the kernel tests to diff or digest event
  /// traces; null (the default) disables tracing.
  using TraceFn = void (*)(void* ctx, const EventKey& key);
  void SetTraceHook(TraceFn fn, void* ctx) {
    trace_ = fn;
    trace_ctx_ = ctx;
  }

  // --- Profiling tags ------------------------------------------------------
  //
  // Every event carries a 16-bit tag stamped at schedule time from the
  // scheduler's ambient "current tag" (tag 0 = "untagged").  Actors set the
  // ambient tag around their scheduling calls, and Step() restores it to the
  // fired event's tag before running the action, so events scheduled *inside*
  // an action inherit the attribution of the actor that caused them.  The
  // whole mechanism costs one uint16 store per schedule and one branch per
  // dispatch when no profile hook is installed.

  /// Interns `name` as a profiling tag and returns its id; registering the
  /// same name twice returns the same id.  Tag 0 is always "untagged".
  uint16_t RegisterProfileTag(const std::string& name);

  /// Names of all registered tags, indexed by tag id.
  const std::vector<std::string>& profile_tag_names() const {
    return tag_names_;
  }

  /// Replaces the ambient tag stamped onto newly scheduled events; returns
  /// the previous tag so callers can scope the change (see `TagScope`).
  uint16_t SetCurrentTag(uint16_t tag) {
    const uint16_t previous = current_tag_;
    current_tag_ = tag;
    return previous;
  }
  uint16_t current_tag() const { return current_tag_; }

  // --- Trace context -------------------------------------------------------
  //
  // Alongside the profiling tag, every event carries a 32-bit trace context
  // (0 = "untraced") stamped from the scheduler's ambient context at
  // schedule time and restored by Step() before the action runs.  The span
  // tracer (obs/spans.hpp) uses it to attribute work performed by shared
  // actors (disk, network) back to the transaction that caused it, across
  // arbitrarily deep event chains.  Like the tag it is pure metadata: it
  // never influences ordering, timing, or random streams.

  /// Replaces the ambient trace context stamped onto newly scheduled
  /// events; returns the previous context so callers can scope the change.
  uint32_t SetCurrentTrace(uint32_t trace) {
    const uint32_t previous = current_trace_;
    current_trace_ = trace;
    return previous;
  }
  uint32_t current_trace() const { return current_trace_; }

  /// Observes every dispatched event: its tag, the new clock value, and the
  /// simulated time the clock advanced to reach it (0 for simultaneous
  /// events).  Null (the default) disables profiling at the cost of a single
  /// predictable branch per dispatch.
  using ProfileFn = void (*)(void* ctx, uint16_t tag, SimTime now,
                             SimTime advance);
  void SetProfileHook(ProfileFn fn, void* ctx) {
    profile_ = fn;
    profile_ctx_ = ctx;
  }

 private:
  /// Fields in falling alignment, so the record packs into 96 bytes.
  struct EventRecord {
    Action action;
    EventKey key;
    uint32_t generation = 0;
    uint32_t trace = 0;      ///< trace context (ambient at schedule time)
    uint32_t next_free = 0;  ///< free-list link when not allocated
    uint16_t tag = 0;        ///< profiling tag (ambient at schedule time)
    bool cancelled = false;
    bool in_queue = false;   ///< queued (live or lazily-deleted)
    bool in_lane = false;    ///< resident in the fast lane, not the heap
  };

  /// One FIFO ring of same-priority fast-lane entries.  `slots` has
  /// power-of-two capacity; `head`/`tail` are free-running counters
  /// masked on access, so FIFO position — and therefore seq order, since
  /// all lane entries share `time == now_` — is preserved across wraps.
  struct LaneRing {
    int priority = 0;
    std::vector<uint32_t> slots;
    size_t head = 0;
    size_t tail = 0;
  };

  EventRecord& Record(uint32_t slot) {
    return chunks_[slot / kChunkRecords][slot % kChunkRecords];
  }
  const EventRecord& Record(uint32_t slot) const {
    return chunks_[slot / kChunkRecords][slot % kChunkRecords];
  }
  uint32_t AllocSlot() {
    if (free_head_ == kNoSlot) return GrowSlot();
    const uint32_t slot = free_head_;
    free_head_ = Record(slot).next_free;
    return slot;
  }
  /// Hands out the next never-used slot, adding a chunk when all are taken.
  uint32_t GrowSlot();
  /// Invalidates every handle to `slot`, then recycles it.
  void FreeSlot(uint32_t slot);
  /// Destroys `slot`'s action and pushes the slot on the free list.
  void RecycleSlot(uint32_t slot);
  /// Stamps the key, lane/heap placement and ambient metadata of the
  /// event whose action was just built in `slot`, and queues it.
  EventHandle Enqueue(uint32_t slot, SimTime when, int priority);
  [[noreturn]] void RejectDelay(SimTime delay) const;
  [[noreturn]] void RejectTime(SimTime when) const;
  /// Frees `slot` and throws: its action was empty.
  [[noreturn]] void RejectEmpty(uint32_t slot);
  bool IsPending(uint32_t slot, uint32_t generation) const;
  /// Rebuilds the heap keeping only live entries.
  void Compact();
  /// Pops lazily-deleted entries off the front of the heap.
  void SkimCancelled();
  /// Appends `slot` to the ring for `priority`, creating/growing it.
  void LanePush(int priority, uint32_t slot);
  /// The ring holding the lane's next live event — the first non-empty
  /// ring in priority-descending order — skimming lazily-deleted heads
  /// on the way.  Null when the lane is empty.
  LaneRing* LaneHead();
  /// Grows `ring` to a power-of-two capacity >= `min_capacity`,
  /// preserving FIFO order.
  static void GrowRing(LaneRing& ring, size_t min_capacity);
  /// Rewrites every ring in place keeping only live entries (FIFO order
  /// preserved; the lane analogue of Compact()).
  void CompactLane();
  /// Removes and returns the merged (lane vs heap) minimum into `out`;
  /// false when no live event remains.
  bool PopNext(QueuedEvent* out);

  friend class EventHandle;

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr size_t kLaneInitialCapacity = 8;

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t pending_ = 0;
  size_t cancelled_in_queue_ = 0;
  bool stopped_ = false;
  std::vector<LaneRing> lanes_;  ///< sorted by priority descending
  size_t lane_size_ = 0;         ///< lane entries incl. lazily-deleted
  size_t lane_cancelled_ = 0;
  QueueStats stats_;
  EventQueue queue_;
  /// The slab arena: fixed chunks of kChunkRecords records that never
  /// move, so a running action stays put while it schedules more events.
  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  uint32_t arena_used_ = 0;  ///< slots ever handed out (the rest are fresh)
  uint32_t free_head_ = kNoSlot;
  TraceFn trace_ = nullptr;
  void* trace_ctx_ = nullptr;
  uint16_t current_tag_ = 0;
  uint32_t current_trace_ = 0;
  std::vector<std::string> tag_names_{"untagged"};
  ProfileFn profile_ = nullptr;
  void* profile_ctx_ = nullptr;
};

/// RAII scope that sets the scheduler's ambient profiling tag and restores
/// the previous one on destruction.
class TagScope {
 public:
  TagScope(Scheduler* scheduler, uint16_t tag)
      : scheduler_(scheduler), previous_(scheduler->SetCurrentTag(tag)) {}
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;
  ~TagScope() { scheduler_->SetCurrentTag(previous_); }

 private:
  Scheduler* scheduler_;
  uint16_t previous_;
};

/// RAII scope that sets the scheduler's ambient trace context and restores
/// the previous one on destruction (the tracing analogue of TagScope).
class TraceScope {
 public:
  TraceScope(Scheduler* scheduler, uint32_t trace)
      : scheduler_(scheduler), previous_(scheduler->SetCurrentTrace(trace)) {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { scheduler_->SetCurrentTrace(previous_); }

 private:
  Scheduler* scheduler_;
  uint32_t previous_;
};

}  // namespace voodb::desp

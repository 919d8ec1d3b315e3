#include "desp/scheduler.hpp"

#include <sstream>
#include <utility>

namespace voodb::desp {

bool EventHandle::pending() const {
  return scheduler_ != nullptr && scheduler_->IsPending(slot_, generation_);
}

void Scheduler::RejectDelay(SimTime delay) const {
  std::ostringstream os;
  os << "cannot schedule into the past (delay=" << delay << ")";
  util::detail::ThrowCheckFailure("delay >= 0.0", __FILE__, __LINE__,
                                  os.str());
}

void Scheduler::RejectTime(SimTime when) const {
  std::ostringstream os;
  os << "cannot schedule into the past (when=" << when << ", now=" << now_
     << ")";
  util::detail::ThrowCheckFailure("when >= now_", __FILE__, __LINE__,
                                  os.str());
}

void Scheduler::RejectEmpty(uint32_t slot) {
  FreeSlot(slot);
  util::detail::ThrowCheckFailure("static_cast<bool>(action)", __FILE__,
                                  __LINE__, "event action must be callable");
}

EventHandle Scheduler::Enqueue(uint32_t slot, SimTime when, int priority) {
  EventRecord& record = Record(slot);
  record.key = EventKey{when, priority, next_seq_++};
  record.cancelled = false;
  record.in_queue = true;
  record.tag = current_tag_;
  record.trace = current_trace_;
  if (when == now_) {
    // Zero-delay fast lane: all lane entries share time == now_, so a
    // per-priority FIFO ring preserves the (time, priority, seq) order
    // without touching the O(log n) heap.  The lane drains before the
    // clock can advance (see PopNext), so the time never goes stale.
    record.in_lane = true;
    LanePush(priority, slot);
    ++stats_.lane_pushes;
  } else {
    record.in_lane = false;
    queue_.Push(QueuedEvent{record.key, slot});
    ++stats_.heap_pushes;
  }
  ++pending_;
  EventHandle handle;
  handle.scheduler_ = this;
  handle.slot_ = slot;
  handle.generation_ = record.generation;
  return handle;
}

uint16_t Scheduler::RegisterProfileTag(const std::string& name) {
  for (size_t i = 0; i < tag_names_.size(); ++i) {
    if (tag_names_[i] == name) return static_cast<uint16_t>(i);
  }
  VOODB_CHECK_MSG(tag_names_.size() < UINT16_MAX, "profile tag space exhausted");
  tag_names_.push_back(name);
  return static_cast<uint16_t>(tag_names_.size() - 1);
}

bool Scheduler::IsPending(uint32_t slot, uint32_t generation) const {
  if (slot >= arena_used_) return false;
  const EventRecord& record = Record(slot);
  return record.in_queue && record.generation == generation &&
         !record.cancelled;
}

bool Scheduler::Cancel(EventHandle& handle) {
  if (handle.scheduler_ != this || !IsPending(handle.slot_,
                                              handle.generation_)) {
    return false;  // empty, fired, cancelled or moved-from: safe no-op
  }
  EventRecord& record = Record(handle.slot_);
  record.cancelled = true;
  record.action.Reset();  // release captured resources eagerly
  --pending_;
  // Lazily-deleted entries are only skimmed when they reach the front of
  // their structure; without a bound, cancel-heavy workloads (re-armed
  // timeouts) bloat the event list forever.  Rebuild whichever structure
  // holds the event once its dead entries outnumber its live ones.
  // Lane-resident events stay cancellable under the same contract: they
  // are skimmed at the ring head (LaneHead) or dropped by CompactLane,
  // never executed — and the per-structure bound keeps the documented
  // QueueEntries() < 2 * PendingEvents() + 1 invariant intact.
  if (record.in_lane) {
    ++lane_cancelled_;
    if (lane_cancelled_ * 2 > lane_size_) CompactLane();
  } else {
    ++cancelled_in_queue_;
    if (cancelled_in_queue_ * 2 > queue_.Size()) Compact();
  }
  return true;
}

uint32_t Scheduler::GrowSlot() {
  VOODB_CHECK_MSG(arena_used_ < kNoSlot, "event arena exhausted");
  if (arena_used_ == ArenaCapacity()) {
    chunks_.push_back(std::make_unique<EventRecord[]>(kChunkRecords));
  }
  return arena_used_++;
}

void Scheduler::FreeSlot(uint32_t slot) {
  EventRecord& record = Record(slot);
  record.in_queue = false;
  ++record.generation;  // invalidates every outstanding handle
  RecycleSlot(slot);
}

void Scheduler::RecycleSlot(uint32_t slot) {
  EventRecord& record = Record(slot);
  record.action.Reset();
  record.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::Compact() {
  std::vector<QueuedEvent> live;
  live.reserve(pending_);
  while (!queue_.Empty()) {
    const QueuedEvent event = queue_.PopMin();
    if (Record(event.slot).cancelled) {
      FreeSlot(event.slot);
    } else {
      live.push_back(event);
    }
  }
  cancelled_in_queue_ = 0;
  for (const QueuedEvent& event : live) queue_.Push(event);
  ++stats_.compactions;
}

void Scheduler::SkimCancelled() {
  if (cancelled_in_queue_ == 0) return;  // the common, branch-only case
  while (!queue_.Empty()) {
    const QueuedEvent min = queue_.Min();
    if (!Record(min.slot).cancelled) return;
    queue_.PopMin();
    FreeSlot(min.slot);
    --cancelled_in_queue_;
    ++stats_.skims;
  }
}

void Scheduler::LanePush(int priority, uint32_t slot) {
  LaneRing* ring = nullptr;
  for (LaneRing& candidate : lanes_) {
    if (candidate.priority == priority) {
      ring = &candidate;
      break;
    }
  }
  if (ring == nullptr) {
    // Rings stay sorted by priority descending so the first ring with a
    // live head is the lane minimum.  Workloads use a handful of
    // distinct priorities, so the linear scan stays in one cache line.
    auto it = lanes_.begin();
    while (it != lanes_.end() && it->priority > priority) ++it;
    ring = &*lanes_.insert(it, LaneRing{priority, {}, 0, 0});
  }
  if (ring->tail - ring->head == ring->slots.size()) {
    GrowRing(*ring, ring->slots.size() + 1);
  }
  ring->slots[ring->tail & (ring->slots.size() - 1)] = slot;
  ++ring->tail;
  ++lane_size_;
}

void Scheduler::GrowRing(LaneRing& ring, size_t min_capacity) {
  size_t capacity =
      ring.slots.empty() ? kLaneInitialCapacity : ring.slots.size();
  while (capacity < min_capacity) capacity *= 2;
  std::vector<uint32_t> slots(capacity);
  const size_t count = ring.tail - ring.head;
  for (size_t i = 0; i < count; ++i) {
    slots[i] = ring.slots[(ring.head + i) & (ring.slots.size() - 1)];
  }
  ring.slots = std::move(slots);
  ring.head = 0;
  ring.tail = count;
}

Scheduler::LaneRing* Scheduler::LaneHead() {
  for (LaneRing& ring : lanes_) {
    while (ring.head != ring.tail) {
      const uint32_t slot = ring.slots[ring.head & (ring.slots.size() - 1)];
      if (!Record(slot).cancelled) return &ring;
      ++ring.head;
      --lane_size_;
      --lane_cancelled_;
      ++stats_.skims;
      FreeSlot(slot);
    }
  }
  return nullptr;
}

void Scheduler::CompactLane() {
  for (LaneRing& ring : lanes_) {
    if (ring.head == ring.tail) continue;
    const size_t mask = ring.slots.size() - 1;
    size_t out = ring.head;
    for (size_t i = ring.head; i != ring.tail; ++i) {
      const uint32_t slot = ring.slots[i & mask];
      if (Record(slot).cancelled) {
        FreeSlot(slot);
        --lane_size_;
      } else {
        ring.slots[out & mask] = slot;  // in-place, FIFO order preserved
        ++out;
      }
    }
    ring.tail = out;
  }
  lane_cancelled_ = 0;
  ++stats_.compactions;
}

bool Scheduler::PopNext(QueuedEvent* out) {
  LaneRing* ring = lane_size_ > 0 ? LaneHead() : nullptr;
  if (ring == nullptr) {
    // Heap-only path, with lazy skimming.
    for (;;) {
      if (queue_.Empty()) return false;
      const QueuedEvent event = queue_.PopMin();
      if (Record(event.slot).cancelled) {
        FreeSlot(event.slot);
        --cancelled_in_queue_;
        ++stats_.skims;
        continue;
      }
      ++stats_.heap_pops;
      *out = event;
      return true;
    }
  }
  // Merge: the lane head carries time == now_, so it can only lose to a
  // heap entry at the same timestamp with higher priority or lower seq.
  // Because the clock only advances through a heap event with a later
  // time — reachable only once the lane is empty — every lane entry
  // still satisfies time == now_ when it surfaces here.
  const uint32_t slot = ring->slots[ring->head & (ring->slots.size() - 1)];
  const EventKey lane_key = Record(slot).key;
  SkimCancelled();
  if (!queue_.Empty() && FiresBefore(queue_.Min().key, lane_key)) {
    *out = queue_.PopMin();
    ++stats_.heap_pops;
    return true;
  }
  ++ring->head;
  --lane_size_;
  ++stats_.lane_pops;
  *out = QueuedEvent{lane_key, slot};
  return true;
}

bool Scheduler::PeekNextTime(SimTime* time) {
  LaneRing* ring = lane_size_ > 0 ? LaneHead() : nullptr;
  if (ring != nullptr) {
    // == Now(), which is <= every heap entry, so the lane head time is
    // the merged minimum whenever the lane is non-empty.
    const uint32_t slot = ring->slots[ring->head & (ring->slots.size() - 1)];
    *time = Record(slot).key.time;
    return true;
  }
  SkimCancelled();
  if (queue_.Empty()) return false;
  *time = queue_.Min().key.time;
  return true;
}

bool Scheduler::Step() {
  QueuedEvent event;
  if (!PopNext(&event)) return false;
  EventRecord& record = Record(event.slot);
  --pending_;
  const SimTime advance = event.key.time - now_;
  now_ = event.key.time;
  const uint16_t tag = record.tag;
  current_tag_ = tag;  // events scheduled by the action inherit it
  current_trace_ = record.trace;  // trace context inherits the same way
  // The running event's handle reads as fired (Cancel is a no-op), but
  // its slot stays off the free list until the action returns: the
  // action runs in place, and chunks never move, so scheduling more
  // events from inside it cannot disturb it.  The guard recycles the
  // slot also when the action throws.
  record.in_queue = false;
  ++record.generation;
  struct Recycle {
    Scheduler* scheduler;
    uint32_t slot;
    ~Recycle() { scheduler->RecycleSlot(slot); }
  } recycle{this, event.slot};
  if (trace_ != nullptr) trace_(trace_ctx_, event.key);
  if (profile_ != nullptr) profile_(profile_ctx_, tag, now_, advance);
  ++executed_;
  record.action();
  return true;
}

void Scheduler::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

uint64_t Scheduler::RunWindow(SimTime end) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_) {
    SimTime next;
    // The merged peek keeps the window contract lane-aware: lane events
    // carry time == Now(), which can sit at or past `end` when another
    // partition's earlier events defined the window — they must wait.
    if (!PeekNextTime(&next) || next >= end) break;
    Step();
    ++executed;
  }
  return executed;
}

void Scheduler::RunUntil(SimTime deadline) {
  VOODB_CHECK_MSG(deadline >= now_,
                  "cannot run until a time in the past (deadline="
                      << deadline << ", now=" << now_ << ")");
  stopped_ = false;
  while (!stopped_) {
    SimTime next;
    if (!PeekNextTime(&next) || next > deadline) {
      now_ = deadline;
      return;
    }
    Step();
  }
}

void Scheduler::Reserve(size_t events) {
  const size_t chunks = (events + kChunkRecords - 1) / kChunkRecords;
  chunks_.reserve(chunks);
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique<EventRecord[]>(kChunkRecords));
  }
  queue_.Reserve(events);
  if (events == 0) return;
  // Pre-size the default-priority ring: a same-timestamp burst can
  // approach the full pending population (every user's decision
  // continuation lands at one instant under contention).
  size_t capacity = kLaneInitialCapacity;
  while (capacity < events) capacity *= 2;
  for (LaneRing& ring : lanes_) {
    if (ring.priority == 0) {
      if (ring.slots.size() < capacity) GrowRing(ring, capacity);
      return;
    }
  }
  auto it = lanes_.begin();
  while (it != lanes_.end() && it->priority > 0) ++it;
  lanes_.insert(it, LaneRing{0, std::vector<uint32_t>(capacity), 0, 0});
}

}  // namespace voodb::desp

/// \file event_queue.hpp
/// \brief The DESP scheduler's event list: a binary heap of event keys.
///
/// The scheduler separates *what* an event is (an arena slot holding the
/// action, owned by `Scheduler`) from *where the next event comes from*
/// (this heap).  A heap entry is just the ordering key plus the arena
/// slot index, so sifts move 32-byte PODs around instead of
/// reference-counted closures.  The order is total — earliest time first,
/// then highest priority, then lowest insertion sequence — which makes
/// every simulation bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace voodb::desp {

/// Simulated time.  The unit is milliseconds throughout VOODB (disk and
/// lock parameters of Table 3 are given in ms).
using SimTime = double;

/// The total-order key of a scheduled event.
struct EventKey {
  SimTime time = 0.0;
  int priority = 0;
  uint64_t seq = 0;
};

/// True when `a` must fire before `b`: smallest time, then highest
/// priority, then lowest sequence number.  Strict weak order; no two
/// scheduled events share a `seq`, so the order is total.
inline bool FiresBefore(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.seq < b.seq;
}

/// One queue entry: the ordering key plus the owning arena slot.
struct QueuedEvent {
  EventKey key;
  uint32_t slot = 0;
};

/// An implicit binary min-heap of QueuedEvents ordered by FiresBefore.
class EventQueue {
 public:
  void Push(const QueuedEvent& event) {
    heap_.push_back(event);
    SiftUp(heap_.size() - 1);
  }

  /// Removes and returns the first event.  Precondition: !Empty().
  QueuedEvent PopMin() {
    const QueuedEvent min = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return min;
  }

  /// The first event without removing it.  Precondition: !Empty().
  const QueuedEvent& Min() const { return heap_.front(); }

  size_t Size() const { return heap_.size(); }
  bool Empty() const { return heap_.empty(); }
  void Clear() { heap_.clear(); }

  /// Pre-sizes the storage for `events` pending entries.
  void Reserve(size_t events) { heap_.reserve(events); }

 private:
  void SiftUp(size_t i) {
    const QueuedEvent moving = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!FiresBefore(moving.key, heap_[parent].key)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moving;
  }

  void SiftDown(size_t i) {
    const QueuedEvent moving = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      size_t best = 2 * i + 1;
      if (best >= n) break;
      if (best + 1 < n && FiresBefore(heap_[best + 1].key, heap_[best].key)) {
        ++best;
      }
      if (!FiresBefore(heap_[best].key, moving.key)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moving;
  }

  std::vector<QueuedEvent> heap_;
};

}  // namespace voodb::desp

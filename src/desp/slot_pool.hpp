/// \file slot_pool.hpp
/// \brief Recycled per-request state slots addressed by index.
///
/// A continuation that must carry more than a few words of state (an IO
/// batch, a multi-page walk, a parked completion) keeps that state in a
/// `SlotPool` slot and binds only `{this, slot}`, which fits
/// `SmallFunction`'s inline buffer.  Freed slots are reused LIFO with
/// whatever heap capacity they hold (a batch's `std::vector` keeps its
/// buffer), so once a pool has reached its peak occupancy it allocates
/// nothing.  Slots are addressed by index because the pool may grow
/// while a slot is live: never hold a reference across `Alloc()`.
#pragma once

#include <cstdint>
#include <vector>

namespace voodb::desp {

template <typename T>
class SlotPool {
 public:
  /// A free slot's index; the slot keeps the state its last user left
  /// (the caller resets what it needs).
  uint32_t Alloc() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void Free(uint32_t slot) { free_.push_back(slot); }

  T& operator[](uint32_t slot) { return slots_[slot]; }
  const T& operator[](uint32_t slot) const { return slots_[slot]; }

  /// Slots ever created: bounded by peak occupancy, not by requests.
  size_t capacity() const { return slots_.size(); }
  size_t live() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace voodb::desp

/// \file id_index.hpp
/// \brief A flat open-addressing index from 64-bit ids to slot indices.
#pragma once

#include <cstdint>
#include <vector>

namespace voodb::util {

/// Sentinel slot index ("not indexed").
inline constexpr uint32_t kNoIndex = static_cast<uint32_t>(-1);

/// Open-addressing hash index from a 64-bit id (a page, an object) to a
/// 32-bit slot index (linear probing, power-of-two capacity,
/// backward-shift deletion).  Probes touch one small flat array, and
/// erasing then re-inserting reuses it, so a warmed-up index never
/// allocates.  It is the resident-page index of the database buffer and
/// the VM model, and the object index of the lock table.
class IdIndex {
 public:
  explicit IdIndex(uint64_t expected_entries = 16);

  /// Slot holding `id`, or kNoIndex.
  uint32_t Find(uint64_t id) const {
    uint64_t i = Hash(id) & mask_;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.id == id) return slot.index;
      if (slot.index == kNoIndex) return kNoIndex;
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `id -> index`; `id` must not be present.
  void Insert(uint64_t id, uint32_t index);
  /// Removes `id`; must be present.
  void Erase(uint64_t id);
  void Clear();

  uint64_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t id = static_cast<uint64_t>(-1);
    uint32_t index = kNoIndex;  ///< kNoIndex = empty slot
  };

  static uint64_t Hash(uint64_t id) {
    // 64-bit finalizer (splitmix64): cheap and well-distributed for the
    // dense ids placements and object bases produce.
    uint64_t x = id + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  void Rehash(uint64_t capacity);

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint64_t size_ = 0;
};

}  // namespace voodb::util

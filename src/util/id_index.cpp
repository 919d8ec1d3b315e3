#include "util/id_index.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace voodb::util {

namespace {

uint64_t NextPowerOfTwo(uint64_t v) {
  uint64_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

IdIndex::IdIndex(uint64_t expected_entries) {
  // Cap the load factor at ~1/2 so probe chains stay short.
  const uint64_t capacity = NextPowerOfTwo(expected_entries * 2);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
}

void IdIndex::Insert(uint64_t id, uint32_t index) {
  if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  uint64_t i = Hash(id) & mask_;
  while (slots_[i].index != kNoIndex) {
    VOODB_CHECK_MSG(slots_[i].id != id, "id " << id << " already indexed");
    i = (i + 1) & mask_;
  }
  slots_[i] = Slot{id, index};
  ++size_;
}

void IdIndex::Erase(uint64_t id) {
  uint64_t i = Hash(id) & mask_;
  while (slots_[i].id != id) {
    VOODB_CHECK_MSG(slots_[i].index != kNoIndex,
                    "erasing unindexed id " << id);
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: keep every remaining entry reachable from
  // its home slot without tombstones.
  uint64_t hole = i;
  uint64_t j = (i + 1) & mask_;
  while (slots_[j].index != kNoIndex) {
    const uint64_t home = Hash(slots_[j].id) & mask_;
    // Move slot j into the hole when its home position lies at or
    // before the hole (cyclically), i.e. the probe for it would pass
    // through the hole.
    const bool between = ((j - home) & mask_) >= ((j - hole) & mask_);
    if (between) {
      slots_[hole] = slots_[j];
      hole = j;
    }
    j = (j + 1) & mask_;
  }
  slots_[hole] = Slot{};
  --size_;
}

void IdIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

void IdIndex::Rehash(uint64_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.index != kNoIndex) Insert(slot.id, slot.index);
  }
}

}  // namespace voodb::util

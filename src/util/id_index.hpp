/// \file id_index.hpp
/// \brief A direct table from dense ids to slot indices.
#pragma once

#include <cstdint>
#include <vector>

namespace voodb::util {

/// Sentinel slot index ("not indexed").
inline constexpr uint32_t kNoIndex = static_cast<uint32_t>(-1);

/// Direct table from an id (a page, an object) to a 32-bit slot index.
/// Every id it holds is dense — page ids run over `[0, NumPages)`,
/// object ids over `[0, num_objects)` — so the table is one vector
/// indexed by id: a lookup is one bounds-checked load and an erase one
/// store.  It grows geometrically to the largest id inserted, so a
/// warmed-up index never allocates.  It is the resident-page index of
/// the database buffer and the VM model, and the object index of the
/// lock table.
class IdIndex {
 public:
  /// Slot holding `id`, or kNoIndex.
  uint32_t Find(uint64_t id) const {
    return id < slots_.size() ? slots_[id] : kNoIndex;
  }

  /// Inserts `id -> index`; `id` must not be present and must be below
  /// 2^32 (a sparse id such as kNullPage is rejected, not allocated for).
  void Insert(uint64_t id, uint32_t index);
  /// Removes `id`; must be present.
  void Erase(uint64_t id);
  void Clear();

  uint64_t size() const { return size_; }

 private:
  std::vector<uint32_t> slots_;  ///< by id; kNoIndex = absent
  uint64_t size_ = 0;
};

}  // namespace voodb::util

#include "util/id_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace voodb::util {

void IdIndex::Insert(uint64_t id, uint32_t index) {
  VOODB_CHECK_MSG(id <= UINT32_MAX,
                  "id " << id << " is not dense (an index holds ids < 2^32)");
  if (id >= slots_.size()) {
    slots_.resize(std::max<uint64_t>({id + 1, slots_.size() * 2, 64}),
                  kNoIndex);
  }
  VOODB_CHECK_MSG(slots_[id] == kNoIndex, "id " << id << " already indexed");
  slots_[id] = index;
  ++size_;
}

void IdIndex::Erase(uint64_t id) {
  VOODB_CHECK_MSG(Find(id) != kNoIndex, "erasing unindexed id " << id);
  slots_[id] = kNoIndex;
  --size_;
}

void IdIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), kNoIndex);
  size_ = 0;
}

}  // namespace voodb::util

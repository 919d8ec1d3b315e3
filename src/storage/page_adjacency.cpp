#include "storage/page_adjacency.hpp"

#include <algorithm>
#include <cstddef>

namespace voodb::storage {

void PageAdjacency::Rebuild(const ocb::ObjectBase& base,
                            const Placement& placement) {
  // One CSR row per page, appended in place.  `stamp[q] == page + 1`
  // marks q as already in row `page` (or q == page), so each row is
  // deduplicated as it is gathered and only its distinct pages are
  // sorted.
  const uint64_t num_pages = placement.NumPages();
  offsets_.clear();
  offsets_.reserve(num_pages + 1);
  pages_.clear();
  std::vector<PageId> stamp(num_pages, 0);
  for (PageId page = 0; page < num_pages; ++page) {
    const uint64_t begin = pages_.size();
    offsets_.push_back(begin);
    stamp[page] = page + 1;
    for (ocb::Oid oid : placement.ObjectsOn(page)) {
      for (ocb::Oid ref : base.References(oid)) {
        if (ref == ocb::kNullOid) continue;
        const PageSpan span = placement.spans()[ref];
        for (uint32_t i = 0; i < span.count; ++i) {
          const PageId target = span.first + i;
          if (stamp[target] == page + 1) continue;
          stamp[target] = page + 1;
          pages_.push_back(target);
        }
      }
    }
    std::sort(pages_.begin() + static_cast<std::ptrdiff_t>(begin),
              pages_.end());
  }
  offsets_.push_back(pages_.size());
}

}  // namespace voodb::storage

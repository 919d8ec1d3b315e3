#include "storage/page_adjacency.hpp"

#include <algorithm>
#include <cstddef>

namespace voodb::storage {

void PageAdjacency::Rebuild(const ocb::ObjectBase& base,
                            const Placement& placement) {
  base_ = &base;
  placement_ = &placement;
  const uint64_t num_pages = placement.NumPages();
  rows_.assign(num_pages, Row{});
  pages_.clear();
  // Stamps only ever hold past generations, so growing is the only reset
  // they need.
  if (stamp_.size() < num_pages) stamp_.resize(num_pages, 0);
}

PageIdSpan PageAdjacency::BuildRow(PageId page) {
  // The row is appended in place, deduplicated as it is gathered, and
  // only its distinct pages are sorted.
  const uint64_t begin = pages_.size();
  const uint64_t generation = ++generation_;
  stamp_[page] = generation;
  const PageSpan* spans = placement_->spans().data();
  for (ocb::Oid oid : placement_->ObjectsOn(page)) {
    for (ocb::Oid ref : base_->References(oid)) {
      if (ref == ocb::kNullOid) continue;
      const PageSpan span = spans[ref];
      for (uint32_t i = 0; i < span.count; ++i) {
        const PageId target = span.first + i;
        if (stamp_[target] == generation) continue;
        stamp_[target] = generation;
        pages_.push_back(target);
      }
    }
  }
  std::sort(pages_.begin() + static_cast<std::ptrdiff_t>(begin),
            pages_.end());
  const uint64_t count = pages_.size() - begin;
  rows_[page] = Row{begin, count};
  return PageIdSpan(pages_.data() + begin, static_cast<size_t>(count));
}

}  // namespace voodb::storage

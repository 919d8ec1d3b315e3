/// \file page_adjacency.hpp
/// \brief Page-adjacency index: pages referenced from each page.
///
/// For every page, the deduplicated sorted set of pages holding the
/// objects referenced by the page's objects (excluding the page
/// itself).  Drives the Texas reserve-on-swizzle behaviour in both the
/// DES Object Manager and the Texas emulator.  Only a faulted page's row
/// is ever read, so a row is computed on its first RowOf and memoized
/// (appended to one flat pages[] arena) until the next Rebuild, which
/// re-points the index after a relocation changes the page space.
#pragma once

#include <cstdint>
#include <vector>

#include "ocb/object_base.hpp"
#include "storage/page.hpp"
#include "storage/placement.hpp"
#include "util/check.hpp"

namespace voodb::storage {

class PageAdjacency {
 public:
  /// Points the index at `placement` over `base`'s reference graph and
  /// drops every memoized row: an O(pages) reset that computes no row.
  /// Both must outlive the index until the next Rebuild.
  void Rebuild(const ocb::ObjectBase& base, const Placement& placement);

  /// Pages referenced from `page`, computed on the first call for `page`
  /// since the last Rebuild.  The span is valid until the next RowOf or
  /// Rebuild (computing a row may grow the arena it points into).
  /// Throws util::Error for a row outside the placement the index was
  /// built for (one compare on a path that runs per miss, not per
  /// access).
  PageIdSpan RowOf(PageId page) {
    VOODB_CHECK_MSG(page < NumPages(),
                    "page adjacency row " << page << " out of range (index "
                                          << "covers " << NumPages()
                                          << " pages)");
    const Row row = rows_[page];
    if (row.begin == kUnbuilt) return BuildRow(page);
    return PageIdSpan(pages_.data() + row.begin, row.count);
  }

  /// Number of pages indexed.
  uint64_t NumPages() const { return rows_.size(); }

 private:
  static constexpr uint64_t kUnbuilt = static_cast<uint64_t>(-1);

  /// Row `p` is pages_[begin .. begin + count), or not yet computed.
  struct Row {
    uint64_t begin = kUnbuilt;
    uint64_t count = 0;
  };

  /// Computes `page`'s row, appends it to pages_ and returns it.
  PageIdSpan BuildRow(PageId page);

  const ocb::ObjectBase* base_ = nullptr;
  const Placement* placement_ = nullptr;
  std::vector<Row> rows_;
  std::vector<PageId> pages_;
  /// `stamp_[q] == generation_` marks q as already in the row being
  /// built (or the page itself); one generation per row, never reused.
  std::vector<uint64_t> stamp_;
  uint64_t generation_ = 0;
};

}  // namespace voodb::storage

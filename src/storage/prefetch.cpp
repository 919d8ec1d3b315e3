#include "storage/prefetch.hpp"

#include "util/check.hpp"

namespace voodb::storage {

SequentialPrefetcher::SequentialPrefetcher(uint32_t depth, PageId max_page)
    : depth_(depth), max_page_(max_page) {
  VOODB_CHECK_MSG(depth_ >= 1, "prefetch depth must be >= 1");
}

void SequentialPrefetcher::OnMiss(PageId missed, std::vector<PageId>& pages) {
  for (uint32_t i = 1; i <= depth_; ++i) {
    const PageId next = missed + i;
    if (next > max_page_) break;
    pages.push_back(next);
  }
}

}  // namespace voodb::storage

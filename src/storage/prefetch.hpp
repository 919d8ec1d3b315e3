/// \file prefetch.hpp
/// \brief Prefetching policies (Table 3's PREFETCH parameter).
///
/// The paper ships PREFETCH = {None | Other}; "None" is the default for
/// both validated systems.  We provide the hook plus one concrete policy
/// (sequential read-ahead) so the ablation benches can exercise it — the
/// paper's §5 lists prefetching as a planned extension.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.hpp"

namespace voodb::storage {

/// Decides which extra pages to load when a miss occurs.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  /// Appends to `pages` the pages to load alongside `missed` (resident
  /// ones are skipped by the buffer manager).
  virtual void OnMiss(PageId missed, std::vector<PageId>& pages) = 0;
  virtual const char* name() const = 0;
};

/// Sequential read-ahead of `depth` pages, bounded by `max_page`.
class SequentialPrefetcher final : public Prefetcher {
 public:
  SequentialPrefetcher(uint32_t depth, PageId max_page);
  void OnMiss(PageId missed, std::vector<PageId>& pages) override;
  const char* name() const override { return "SEQUENTIAL"; }
  /// Moves the bound (the page space grew or shrank).
  void set_max_page(PageId max_page) { max_page_ = max_page; }

 private:
  uint32_t depth_;
  PageId max_page_;
};

}  // namespace voodb::storage

#include "storage/placement.hpp"

#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace voodb::storage {

const char* ToString(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kSequential:
      return "SEQUENTIAL";
    case PlacementPolicy::kOptimizedSequential:
      return "OPTIMIZED_SEQUENTIAL";
    case PlacementPolicy::kReferenceDfs:
      return "REFERENCE_DFS";
  }
  return "?";
}

Placement Placement::Build(const ocb::ObjectBase& base, uint32_t page_size,
                           PlacementPolicy policy, double overhead_factor) {
  std::vector<ocb::Oid> order;
  switch (policy) {
    case PlacementPolicy::kSequential:
      order.resize(base.NumObjects());
      std::iota(order.begin(), order.end(), ocb::Oid{0});
      break;
    case PlacementPolicy::kOptimizedSequential:
      order = ClassMajorOrder(base);
      break;
    case PlacementPolicy::kReferenceDfs:
      order = DepthFirstOrder(base);
      break;
  }
  return Pack(base, page_size, order, overhead_factor);
}

Placement Placement::BuildFromOrder(const ocb::ObjectBase& base,
                                    uint32_t page_size,
                                    const std::vector<ocb::Oid>& order,
                                    double overhead_factor) {
  VOODB_CHECK_MSG(order.size() == base.NumObjects(),
                  "order must be a permutation of all OIDs");
  return Pack(base, page_size, order, overhead_factor);
}

Placement Placement::RelocateToTail(const Placement& current,
                                    const ocb::ObjectBase& base,
                                    const std::vector<ocb::Oid>& moved_order,
                                    double overhead_factor) {
  VOODB_CHECK_MSG(overhead_factor >= 1.0, "overhead factor must be >= 1");
  Placement placement;
  placement.page_size_ = current.page_size_;
  placement.spans_ = current.spans_;
  std::vector<char> moved(base.NumObjects(), 0);
  for (ocb::Oid oid : moved_order) {
    VOODB_CHECK_MSG(oid < base.NumObjects(), "oid out of range");
    VOODB_CHECK_MSG(!moved[oid], "oid " << oid << " moved twice");
    moved[oid] = 1;
  }
  // Rebuild the page rows: every existing page keeps its objects minus
  // the moved ones (holes are not reclaimed), preserving their order.
  placement.page_offsets_.clear();
  placement.page_objects_.reserve(current.page_objects_.size());
  const uint64_t old_num_pages = current.NumPages();
  for (PageId page = 0; page < old_num_pages; ++page) {
    placement.OpenPageRow();
    for (ocb::Oid oid : current.ObjectsOn(page)) {
      if (!moved[oid]) placement.page_objects_.push_back(oid);
    }
  }
  // Repack moved objects into fresh pages at the tail.
  const uint32_t page_size = placement.page_size_;
  uint64_t current_page = old_num_pages;
  uint32_t used_in_page = 0;
  bool page_open = false;
  for (ocb::Oid oid : moved_order) {
    const auto raw = static_cast<double>(base.SizeOf(oid));
    const auto stored =
        static_cast<uint64_t>(std::ceil(raw * overhead_factor));
    if (stored > page_size) {
      if (page_open) {
        ++current_page;
        page_open = false;
      }
      const auto span_pages =
          static_cast<uint32_t>((stored + page_size - 1) / page_size);
      placement.spans_[oid] = PageSpan{current_page, span_pages};
      placement.OpenPageRow();
      placement.page_objects_.push_back(oid);
      for (uint32_t extra = 1; extra < span_pages; ++extra) {
        placement.OpenPageRow();
      }
      current_page += span_pages;
      continue;
    }
    if (!page_open) {
      placement.OpenPageRow();
      page_open = true;
      used_in_page = 0;
    }
    if (used_in_page + stored > page_size) {
      ++current_page;
      placement.OpenPageRow();
      used_in_page = 0;
    }
    placement.spans_[oid] = PageSpan{current_page, 1};
    placement.page_objects_.push_back(oid);
    used_in_page += static_cast<uint32_t>(stored);
  }
  placement.page_offsets_.push_back(placement.page_objects_.size());
  return placement;
}

Placement Placement::Pack(const ocb::ObjectBase& base, uint32_t page_size,
                          const std::vector<ocb::Oid>& order,
                          double overhead_factor) {
  VOODB_CHECK_MSG(page_size >= 512, "page size must be >= 512 bytes");
  VOODB_CHECK_MSG(overhead_factor >= 1.0, "overhead factor must be >= 1");
  Placement placement;
  placement.page_size_ = page_size;
  placement.spans_.assign(base.NumObjects(), PageSpan{});
  placement.page_offsets_.clear();
  placement.page_objects_.reserve(base.NumObjects());
  std::vector<char> placed(base.NumObjects(), 0);
  // Instances of a class share one size, so each class's stored size
  // ceil(size * overhead) is computed once, not once per object.
  const uint32_t nc = base.schema().NumClasses();
  std::vector<uint64_t> stored_size(nc);
  for (ocb::ClassId c = 0; c < nc; ++c) {
    const auto raw = static_cast<double>(base.schema().Class(c).instance_size);
    stored_size[c] = static_cast<uint64_t>(std::ceil(raw * overhead_factor));
  }

  uint64_t current_page = 0;
  uint32_t used_in_page = 0;
  bool page_open = false;
  auto open_page = [&]() {
    if (!page_open) {
      placement.OpenPageRow();
      page_open = true;
      used_in_page = 0;
    }
  };
  auto close_page = [&]() {
    if (page_open) {
      ++current_page;
      page_open = false;
    }
  };

  for (ocb::Oid oid : order) {
    VOODB_CHECK_MSG(oid < base.NumObjects(), "oid " << oid << " out of range");
    VOODB_CHECK_MSG(!placed[oid], "oid " << oid << " appears twice in order");
    placed[oid] = 1;
    const uint64_t stored = stored_size[base.ClassOf(oid)];
    if (stored > page_size) {
      // Large object: dedicated contiguous span.
      close_page();
      const auto span_pages =
          static_cast<uint32_t>((stored + page_size - 1) / page_size);
      placement.spans_[oid] = PageSpan{current_page, span_pages};
      placement.OpenPageRow();
      placement.page_objects_.push_back(oid);
      for (uint32_t extra = 1; extra < span_pages; ++extra) {
        placement.OpenPageRow();
      }
      current_page += span_pages;
      continue;
    }
    open_page();
    if (used_in_page + stored > page_size) {
      close_page();
      open_page();
    }
    placement.spans_[oid] = PageSpan{current_page, 1};
    placement.page_objects_.push_back(oid);
    used_in_page += static_cast<uint32_t>(stored);
  }
  close_page();
  placement.page_offsets_.push_back(placement.page_objects_.size());
  return placement;
}

std::vector<ocb::Oid> Placement::DepthFirstOrder(const ocb::ObjectBase& base) {
  const uint64_t no = base.NumObjects();
  std::vector<ocb::Oid> order;
  order.reserve(no);
  std::vector<char> visited(no, 0);
  std::vector<ocb::Oid> stack;
  for (ocb::Oid root = 0; root < no; ++root) {
    if (visited[root]) continue;
    stack.push_back(root);
    visited[root] = 1;
    while (!stack.empty()) {
      const ocb::Oid oid = stack.back();
      stack.pop_back();
      order.push_back(oid);
      const ocb::OidSpan refs = base.References(oid);
      // Push in reverse so the first reference is visited first.
      for (size_t i = refs.size(); i > 0; --i) {
        const ocb::Oid ref = refs[i - 1];
        if (ref == ocb::kNullOid || visited[ref]) continue;
        visited[ref] = 1;
        stack.push_back(ref);
      }
    }
  }
  return order;
}

std::vector<ocb::Oid> Placement::ClassMajorOrder(const ocb::ObjectBase& base) {
  const uint64_t no = base.NumObjects();
  std::vector<ocb::Oid> order;
  order.reserve(no);
  // Class-major, instances in OID order within each class.  Round-robin
  // assignment makes this a strided walk over the dense OID space — no
  // bucketing pass needed.
  const uint32_t nc = base.schema().NumClasses();
  for (ocb::ClassId c = 0; c < nc; ++c) {
    for (ocb::Oid oid = c; oid < no; oid += nc) {
      order.push_back(oid);
    }
  }
  return order;
}

PageSpan Placement::SpanOf(ocb::Oid oid) const {
  VOODB_CHECK_MSG(oid < spans_.size(), "oid " << oid << " out of range");
  return spans_[oid];
}

ocb::OidSpan Placement::ObjectsOn(PageId page) const {
  VOODB_CHECK_MSG(page < NumPages(), "page " << page << " out of range");
  const uint64_t begin = page_offsets_[page];
  return ocb::OidSpan(page_objects_.data() + begin,
                      static_cast<size_t>(page_offsets_[page + 1] - begin));
}

}  // namespace voodb::storage

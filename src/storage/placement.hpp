/// \file placement.hpp
/// \brief Object-to-page placement (Table 3's INITPL parameter).
///
/// The placement maps every OCB object to a span of disk pages.  Objects
/// never share a byte across a page boundary unless they are larger than a
/// page, in which case they occupy a dedicated contiguous span.  Three
/// initial policies are provided:
///
/// * **Sequential** — objects packed in OID (creation) order;
/// * **OptimizedSequential** — objects grouped by class, instances in OID
///   order within each class (the classic bulk-load layout: optimal for
///   class scans and set-oriented accesses, the paper's INITPL default).
///   Note this layout is *not* traversal-friendly — which is exactly what
///   leaves room for a dynamic clustering technique to win (§4.4);
/// * **ReferenceDfs** — objects packed in depth-first reference order, an
///   idealized static clustering (ablation baseline).
///
/// Clustering policies produce a new object order and call
/// `BuildFromOrder` / `RelocateToTail` to materialize the reorganization.
#pragma once

#include <cstdint>
#include <vector>

#include "ocb/object_base.hpp"
#include "storage/page.hpp"

namespace voodb::storage {

/// Initial placement policy (INITPL).
enum class PlacementPolicy {
  kSequential,
  kOptimizedSequential,
  kReferenceDfs,
};

const char* ToString(PlacementPolicy p);

/// Contiguous pages occupied by one object.
struct PageSpan {
  PageId first = kNullPage;
  uint32_t count = 0;
};

/// An immutable object→page mapping.
class Placement {
 public:
  /// Builds the initial placement.  `overhead_factor` (>= 1) inflates
  /// object sizes to model per-system storage overhead (e.g. the O2 page
  /// server stores the reference base in 25.0 MiB where Texas needs
  /// 18.4 MiB).
  static Placement Build(const ocb::ObjectBase& base, uint32_t page_size,
                         PlacementPolicy policy,
                         double overhead_factor = 1.0);

  /// Builds a placement that stores objects in exactly the given order
  /// (used by clustering reorganizations).  `order` must be a permutation
  /// of all OIDs.
  static Placement BuildFromOrder(const ocb::ObjectBase& base,
                                  uint32_t page_size,
                                  const std::vector<ocb::Oid>& order,
                                  double overhead_factor = 1.0);

  /// Logical-OID reorganization: removes `moved_order`'s objects from
  /// their current pages (leaving holes) and repacks them, in the given
  /// order, into fresh pages appended after the current page space.
  /// Objects not in `moved_order` keep their pages.
  static Placement RelocateToTail(const Placement& current,
                                  const ocb::ObjectBase& base,
                                  const std::vector<ocb::Oid>& moved_order,
                                  double overhead_factor = 1.0);

  /// Pages occupied by `oid`.
  PageSpan SpanOf(ocb::Oid oid) const;
  /// First page of `oid` (the page its header lives on).  Backed by the
  /// flat Oid-indexed span array — one load, no hashing.
  PageId PageOf(ocb::Oid oid) const { return SpanOf(oid).first; }

  /// Objects whose span starts on `page`, as a CSR row view.
  ocb::OidSpan ObjectsOn(PageId page) const;

  /// The flat Oid -> page-span array (indexed by Oid); `spans()[oid].first`
  /// is the page holding the object's header.
  const std::vector<PageSpan>& spans() const { return spans_; }

  uint64_t NumPages() const { return page_offsets_.size() - 1; }
  uint32_t page_size() const { return page_size_; }
  uint64_t NumObjects() const { return spans_.size(); }

  /// Total size in bytes (NumPages * page_size).
  uint64_t TotalBytes() const { return NumPages() * page_size_; }

 private:
  static Placement Pack(const ocb::ObjectBase& base, uint32_t page_size,
                        const std::vector<ocb::Oid>& order,
                        double overhead_factor);
  /// Depth-first reference order starting from each unvisited object.
  static std::vector<ocb::Oid> DepthFirstOrder(const ocb::ObjectBase& base);
  /// Class-major order: all instances of class 0, then class 1, ...
  static std::vector<ocb::Oid> ClassMajorOrder(const ocb::ObjectBase& base);

  /// Build-side: records the start of a fresh page row.  Builders call
  /// this once per page and push the final sentinel when done, restoring
  /// the `size == NumPages()+1` invariant.
  void OpenPageRow() { page_offsets_.push_back(page_objects_.size()); }

  uint32_t page_size_ = 4096;
  std::vector<PageSpan> spans_;  // indexed by Oid
  /// CSR page -> objects index: page `p` holds
  /// page_objects_[page_offsets_[p] .. page_offsets_[p+1]).  Objects are
  /// only ever appended to the *last open* page during packing, so the
  /// rows stay contiguous without a build-side scratch structure.
  std::vector<uint64_t> page_offsets_{0};  // size NumPages()+1
  std::vector<ocb::Oid> page_objects_;
};

}  // namespace voodb::storage

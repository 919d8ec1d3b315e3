/// \file object_manager.hpp
/// \brief The Object Manager active resource (knowledge model, Fig. 4).
///
/// "Extract Page(s)": resolves logical OIDs into the disk pages holding
/// the object.  The Object Manager owns the placement — the simulation
/// model always uses *logical* OIDs (paper §4.4: "our simulation models
/// ... necessarily use logical OIDs"), so a clustering reorganization only
/// rewrites the placement table and the moved pages, never the
/// references inside other objects.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "desp/actor.hpp"
#include "ocb/object_base.hpp"
#include "storage/page_adjacency.hpp"
#include "storage/placement.hpp"
#include "trace/recorder.hpp"

namespace voodb::obs {
class MetricRegistry;
}  // namespace voodb::obs

namespace voodb::core {

/// The Object Manager actor.  It resolves OIDs synchronously (placement
/// lookups cost no simulated time), so it never schedules events itself —
/// but as an active resource of the knowledge model it sits on the same
/// Actor base as its peers.
class ObjectManagerActor : public desp::Actor {
 public:
  ObjectManagerActor(desp::Scheduler* scheduler, const ocb::ObjectBase* base,
                     uint32_t page_size,
                     storage::PlacementPolicy initial_placement,
                     double overhead_factor);

  /// Pages holding `oid` — one load from the placement's flat
  /// Oid-indexed span array (OIDs from generated transactions are dense
  /// and always in range).
  storage::PageSpan SpanOf(ocb::Oid oid) const {
    return placement_->spans()[oid];
  }

  /// SpanOf plus access-trace recording: the Buffering Manager resolves
  /// every object access through here, so an attached recorder sees the
  /// object stream in execution order.
  storage::PageSpan Resolve(ocb::Oid oid, bool write) {
    if (recorder_ != nullptr) recorder_->OnObject(oid, write);
    return placement_->spans()[oid];
  }

  /// Installs an access-trace recorder (not owned; nullptr detaches).
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  const storage::Placement& placement() const { return *placement_; }
  const ocb::ObjectBase& base() const { return *base_; }
  uint64_t NumPages() const { return placement_->NumPages(); }

  /// Applies a logical-OID reorganization: relocates `moved_order`'s
  /// objects into fresh tail pages.  Returns the old pages the moved
  /// objects came from (to be read) and the new pages written.
  struct RelocationIo {
    std::vector<storage::PageId> pages_to_read;
    std::vector<storage::PageId> pages_to_write;
  };
  RelocationIo ApplyRelocation(const std::vector<ocb::Oid>& moved_order);

  /// Pages holding the objects referenced from any object on `page`
  /// (deduplicated, excluding `page` itself).  Drives the VM model's
  /// page-granular reserve-on-swizzle behaviour.  A row is computed on
  /// the page's first fault and memoized until a relocation changes the
  /// page space.  Returned as a view into the adjacency index (valid
  /// until the next ReferencedPages call or relocation).
  storage::PageIdSpan ReferencedPages(storage::PageId page);

  /// Registers the placement gauges with `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  const ocb::ObjectBase* base_;
  uint32_t page_size_;
  double overhead_factor_;
  trace::Recorder* recorder_ = nullptr;
  std::unique_ptr<storage::Placement> placement_;
  storage::PageAdjacency adjacency_;
  bool adjacency_valid_ = false;
};

}  // namespace voodb::core

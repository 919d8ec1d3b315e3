/// \file buffer_manager.hpp
/// \brief The Buffering Manager's page cache (knowledge model, Fig. 4).
///
/// The Buffering Manager checks whether a requested page is present in the
/// memory buffer; on a miss it asks the I/O Subsystem for the page and, if
/// the buffer is full, evicts a victim chosen by the configured
/// replacement policy (writing it back when dirty).  This class is the
/// pure cache logic — timing is applied by whoever executes the returned
/// `PageIo` operations (the DES I/O subsystem actor, or the emulators'
/// simple counters).
///
/// The cache is data-oriented: resident pages live in one flat `Frame`
/// array that holds the page id, the dirty bit and the replacement-policy
/// state intrusively, found through a `FrameTable`: a direct table
/// indexed by PageId that holds the frame index.  A hit is one table
/// load plus one cache-line update; evictions recycle frames through a
/// free list and never allocate.  Page state is sized by the pages that
/// exist, not by the capacity, so an oversized buffer costs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "desp/random.hpp"
#include "storage/page.hpp"
#include "storage/prefetch.hpp"
#include "storage/replacement.hpp"

namespace voodb::trace {
class Recorder;
}  // namespace voodb::trace

namespace voodb::storage {

/// Counters exposed by the buffer manager.
struct BufferStats {
  uint64_t accesses = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t prefetch_reads = 0;

  double HitRate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

/// A fixed-capacity page buffer with pluggable replacement and prefetch.
class BufferManager {
 public:
  /// \param capacity_pages BUFFSIZE (Table 3); must be >= 1
  /// \param policy        PGREP
  /// \param rng           stream for the RANDOM policy
  /// \param lru_k         K for the LRU-K policy
  /// \param num_pages     pages of the database, when known: frames for
  ///                      min(capacity, num_pages) are reserved up front
  ///                      (a buffer larger than the database never fills)
  BufferManager(uint64_t capacity_pages, ReplacementPolicy policy,
                desp::RandomStream rng = desp::RandomStream(7),
                uint32_t lru_k = 2, uint64_t num_pages = 0);

  /// Installs a prefetcher (nullptr = PREFETCH None).
  void SetPrefetcher(std::unique_ptr<Prefetcher> prefetcher);

  /// Installs an access-trace recorder (not owned; nullptr detaches).
  /// Every logical access through Access/AccessInto is reported as one
  /// page record; the recorder's append path does not allocate, so the
  /// hot path stays allocation-free while recording.
  void SetRecorder(trace::Recorder* recorder) { recorder_ = recorder; }

  /// Performs one logical page access.  The outcome lists the physical
  /// operations implied: dirty write-backs, the read of `page` when it
  /// missed, and prefetch reads.
  AccessOutcome Access(PageId page, bool write);

  /// Allocation-free variant of Access: appends the implied physical
  /// operations to `ios` (not cleared) and returns whether the access
  /// hit.  With a reused caller buffer the whole access path — hit,
  /// miss, eviction, write-back — performs no heap allocation.
  bool AccessInto(PageId page, bool write, std::vector<PageIo>& ios);

  /// True when `page` is resident.
  bool Contains(PageId page) const { return index_.Find(page) != kNoFrame; }

  /// Writes back all dirty pages (appended to `ios` as write IOs, in
  /// ascending page order) and keeps the pages resident but clean.
  void FlushAll(std::vector<PageIo>& ios);

  /// Discards all resident pages without write-back (used when a
  /// reorganization rebuilds the page space from scratch).  Replacement
  /// history is dropped with them.
  void DropAll();

  /// Changes the capacity; evicts (with write-back IOs) when shrinking.
  std::vector<PageIo> Resize(uint64_t capacity_pages);

  uint64_t capacity() const { return capacity_; }
  uint64_t resident_pages() const { return index_.size(); }
  /// Number of resident dirty pages (O(resident)).
  uint64_t DirtyPages() const;
  const BufferStats& stats() const { return stats_; }
  ReplacementPolicy policy() const { return engine_.policy(); }

 private:
  /// Evicts one victim, appending its write-back to `ios` when dirty.
  void EvictOne(std::vector<PageIo>& ios);
  /// Admits a non-resident page, evicting as needed.
  void Admit(PageId page, bool dirty, std::vector<PageIo>& ios);

  uint64_t capacity_;
  ReplacementEngine engine_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::vector<PageId> prefetch_;  ///< reused by AccessInto
  trace::Recorder* recorder_ = nullptr;
  std::vector<Frame> frames_;
  /// Free frame indices, reused LIFO (so frame numbers stay dense and
  /// the CLOCK sweep order matches the classic frame-table formulation).
  std::vector<uint32_t> free_frames_;
  FrameTable index_;
  BufferStats stats_;
};

}  // namespace voodb::storage

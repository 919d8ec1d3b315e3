/// \file buffering_manager.hpp
/// \brief The Buffering Manager active resource (knowledge model, Fig. 4).
///
/// "Access Page(s)": checks the memory buffer and, on a miss, requests the
/// page from the I/O Subsystem.  Depending on the configuration this actor
/// fronts either a database page buffer (BufferManager, with the PGREP
/// replacement policy) or the OS virtual-memory model (Texas).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "desp/actor.hpp"
#include "desp/random.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "ocb/types.hpp"
#include "storage/buffer_manager.hpp"
#include "trace/recorder.hpp"
#include "storage/virtual_memory.hpp"
#include "voodb/config.hpp"
#include "voodb/io_subsystem.hpp"
#include "voodb/object_manager.hpp"

namespace voodb::obs {
class MetricRegistry;
}  // namespace voodb::obs

namespace voodb::core {

/// The Buffering Manager actor.
class BufferingManagerActor : public desp::Actor {
 public:
  BufferingManagerActor(desp::Scheduler* scheduler, const VoodbConfig& config,
                        ObjectManagerActor* object_manager,
                        IoSubsystemActor* io, desp::RandomStream rng);

  /// Accesses object `oid` (every page of its span in order, plus the
  /// reserve-on-swizzle reservations when the Texas VM model is active),
  /// then calls `done`.
  void AccessObject(ocb::Oid oid, bool write, desp::Scheduler::Action done);

  /// Accesses every page of `span` in order, then calls `done`.
  void AccessSpan(storage::PageSpan span, bool write,
                  desp::Scheduler::Action done);

  /// Accesses a single page, then calls `done`.
  void AccessPage(storage::PageId page, bool write,
                  desp::Scheduler::Action done);

  /// Installs an access-trace recorder (not owned; nullptr detaches).
  /// Database-buffer configurations record inside
  /// BufferManager::AccessInto; the VM model records here in AccessPage
  /// (its Touch path is the same logical page stream).
  void SetRecorder(trace::Recorder* recorder);

  /// The recording run's buffer counters for the trace header (VM runs
  /// report touches/faults as accesses/misses; write-backs are swap
  /// writes).
  trace::TraceCounters TraceCountersNow() const;

  /// True when Drop() ran while a recorder was attached — a buffer
  /// event the page stream does not carry, which disqualifies the trace
  /// from bit-exact replay verification (trace::kFlagBufferDrop).
  bool DroppedWhileRecording() const { return dropped_while_recording_; }

  /// Forgets all buffered pages (no write-back).  A relocation drops
  /// the buffer after growing the page space, so this also moves the
  /// sequential prefetcher's bound to the current last page.
  void Drop();

  /// Writes all dirty pages back through the I/O subsystem, then calls
  /// `done` (no-op completion for the VM-backed configuration, which has
  /// no force point).
  void Flush(desp::Scheduler::Action done);

  /// True when `page`'s contents are memory-resident.
  bool Contains(storage::PageId page) const;

  /// Resident dirty pages (the redo work a crash would leave behind).
  uint64_t DirtyPages() const;

  uint64_t requests() const { return requests_; }
  uint64_t hits() const { return hits_; }
  double HitRate() const {
    return requests_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(requests_);
  }
  bool uses_virtual_memory() const { return vm_ != nullptr; }

  /// Registers the buffer counters and derived gauges with `registry`.
  void RegisterMetrics(obs::MetricRegistry& registry) const;

 private:
  /// A multi-page span walk in flight (single pages skip the slot).
  struct Walk {
    storage::PageSpan span;
    uint32_t index = 0;
    bool write = false;
    desp::Scheduler::Action done;
  };
  /// Accesses the walk's next page, or completes the walk.
  void WalkStep(uint32_t walk);

  ObjectManagerActor* object_manager_;
  IoSubsystemActor* io_;
  std::unique_ptr<storage::BufferManager> buffer_;
  std::unique_ptr<storage::VirtualMemoryModel> vm_;
  /// The buffer's sequential prefetcher (owned by buffer_), or nullptr.
  storage::SequentialPrefetcher* prefetcher_ = nullptr;
  desp::SlotPool<Walk> walks_;
  std::vector<storage::PageIo> ios_;  ///< reused by AccessPage and Flush
  trace::Recorder* recorder_ = nullptr;  ///< VM-model page recording
  bool dropped_while_recording_ = false;
  bool vm_reserve_references_ = false;
  uint64_t requests_ = 0;
  uint64_t hits_ = 0;
};

}  // namespace voodb::core

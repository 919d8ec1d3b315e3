#include "voodb/buffering_manager.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"

namespace voodb::core {

BufferingManagerActor::BufferingManagerActor(desp::Scheduler* scheduler,
                                             const VoodbConfig& config,
                                             ObjectManagerActor* object_manager,
                                             IoSubsystemActor* io,
                                             desp::RandomStream rng)
    : Actor(scheduler, "buffering-manager"),
      object_manager_(object_manager),
      io_(io) {
  VOODB_CHECK_MSG(object_manager_ != nullptr && io_ != nullptr,
                  "buffering manager needs its peers");
  if (config.use_virtual_memory) {
    storage::VmParameters vm_params;
    vm_params.memory_pages = config.buffer_pages;
    vm_params.dirty_on_load = config.vm_dirty_on_load;
    vm_params.reservations_enter_hot = config.vm_reservations_enter_hot;
    vm_reserve_references_ = config.vm_reserve_references;
    vm_ = std::make_unique<storage::VirtualMemoryModel>(vm_params);
  } else {
    buffer_ = std::make_unique<storage::BufferManager>(
        config.buffer_pages, config.page_replacement, rng, config.lru_k,
        object_manager_->NumPages());
    if (config.prefetch == PrefetchPolicy::kSequential) {
      // The bound follows the page space: Drop() moves it after a
      // relocation appends pages.
      auto prefetcher = std::make_unique<storage::SequentialPrefetcher>(
          config.prefetch_depth, object_manager_->NumPages() - 1);
      prefetcher_ = prefetcher.get();
      buffer_->SetPrefetcher(std::move(prefetcher));
    }
  }
}

void BufferingManagerActor::AccessObject(ocb::Oid oid, bool write,
                                         desp::Scheduler::Action done) {
  AccessSpan(object_manager_->Resolve(oid, write), write, std::move(done));
}

void BufferingManagerActor::AccessSpan(storage::PageSpan span, bool write,
                                       desp::Scheduler::Action done) {
  VOODB_CHECK_MSG(span.count >= 1, "empty page span");
  if (span.count == 1) {
    AccessPage(span.first, write, std::move(done));
    return;
  }
  const uint32_t walk = walks_.Alloc();
  walks_[walk] = Walk{span, 0, write, std::move(done)};
  WalkStep(walk);
}

void BufferingManagerActor::WalkStep(uint32_t walk) {
  Walk& w = walks_[walk];
  if (w.index >= w.span.count) {
    desp::Scheduler::Action done = std::move(w.done);
    walks_.Free(walk);
    done();
    return;
  }
  const storage::PageId page = w.span.first + w.index++;
  AccessPage(page, w.write, [this, walk]() { WalkStep(walk); });
}

void BufferingManagerActor::SetRecorder(trace::Recorder* recorder) {
  recorder_ = recorder;
  if (buffer_ != nullptr) buffer_->SetRecorder(recorder);
}

trace::TraceCounters BufferingManagerActor::TraceCountersNow() const {
  return vm_ != nullptr ? trace::CountersFrom(vm_->stats())
                        : trace::CountersFrom(buffer_->stats());
}

void BufferingManagerActor::AccessPage(storage::PageId page, bool write,
                                       desp::Scheduler::Action done) {
  ++requests_;
  // The database buffer records inside AccessInto; the VM model has no
  // recorder hook of its own, so the actor reports its page stream.
  if (vm_ != nullptr && recorder_ != nullptr) {
    recorder_->OnPage(page, write);
  }
  ios_.clear();
  const bool hit = vm_ != nullptr ? vm_->TouchInto(page, write, ios_)
                                  : buffer_->AccessInto(page, write, ios_);
  if (hit) {
    ++hits_;
    done();
    return;
  }
  if (vm_ != nullptr && vm_reserve_references_) {
    // Texas faulted the page in: swizzling its pointers reserves frames
    // for every page referenced from it; evictions caused by the
    // reservations produce swap writes the disk must absorb.
    for (storage::PageId ref : object_manager_->ReferencedPages(page)) {
      vm_->ReserveInto(ref, ios_);
    }
  }
  io_->Execute(ios_, std::move(done));
}

void BufferingManagerActor::Flush(desp::Scheduler::Action done) {
  if (vm_ != nullptr) {
    done();
    return;
  }
  ios_.clear();
  buffer_->FlushAll(ios_);
  io_->Execute(ios_, std::move(done));
}

bool BufferingManagerActor::Contains(storage::PageId page) const {
  return vm_ != nullptr ? vm_->IsLoaded(page) : buffer_->Contains(page);
}

uint64_t BufferingManagerActor::DirtyPages() const {
  return vm_ != nullptr ? vm_->DirtyFrames() : buffer_->DirtyPages();
}

void BufferingManagerActor::Drop() {
  if (recorder_ != nullptr) dropped_while_recording_ = true;
  if (vm_ != nullptr) {
    vm_->DropAll();
  } else {
    buffer_->DropAll();
  }
  if (prefetcher_ != nullptr) {
    prefetcher_->set_max_page(object_manager_->NumPages() - 1);
  }
}


void BufferingManagerActor::RegisterMetrics(
    obs::MetricRegistry& registry) const {
  registry.RegisterCounter("buffer.requests", &requests_);
  registry.RegisterCounter("buffer.hits", &hits_);
  registry.RegisterGauge("buffer.hit_rate", [this] { return HitRate(); });
  registry.RegisterGauge("buffer.dirty_pages", [this] {
    return static_cast<double>(DirtyPages());
  });
}

}  // namespace voodb::core

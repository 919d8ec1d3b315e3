#include "storage/virtual_memory.hpp"

#include <utility>

#include "util/check.hpp"

namespace voodb::storage {

void VmParameters::Validate() const {
  VOODB_CHECK_MSG(memory_pages >= 1, "VM needs at least one frame");
}

VirtualMemoryModel::VirtualMemoryModel(VmParameters params) : params_(params) {
  params_.Validate();
}

AccessOutcome VirtualMemoryModel::Touch(PageId page, bool write) {
  AccessOutcome outcome;
  outcome.hit = TouchInto(page, write, outcome.ios);
  return outcome;
}

std::vector<PageIo> VirtualMemoryModel::Reserve(PageId page) {
  std::vector<PageIo> ios;
  ReserveInto(page, ios);
  return ios;
}

bool VirtualMemoryModel::TouchInto(PageId page, bool write,
                                   std::vector<PageIo>& ios) {
  ++stats_.touches;
  const uint32_t frame = index_.Find(page);
  if (frame != kNoFrame && frames_[frame].state == State::kLoaded) {
    ++stats_.soft_hits;
    Frame& f = frames_[frame];
    f.dirty = f.dirty || write;
    Unlink(frame);
    LinkFront(frame);
    return true;
  }

  // Fault: the page is absent or only reserved; either way its contents
  // must come from disk.
  ++stats_.faults;
  if (frame != kNoFrame) {
    // Reserved -> Loaded in place.
    Frame& f = frames_[frame];
    f.state = State::kLoaded;
    f.dirty = params_.dirty_on_load || write;
    Unlink(frame);
    LinkFront(frame);
  } else {
    AllocateFrame(page, State::kLoaded, params_.dirty_on_load || write,
                  /*hot=*/true, ios);
  }
  ++stats_.reads;
  ios.push_back(PageIo{PageIo::Kind::kRead, page});
  return false;
}

void VirtualMemoryModel::ReserveInto(PageId page, std::vector<PageIo>& ios) {
  if (index_.Find(page) != kNoFrame) return;  // already has a frame
  // Cold (the default): the reservation becomes the next eviction
  // victim unless a fault promotes it first.
  AllocateFrame(page, State::kReserved, /*dirty=*/false,
                params_.reservations_enter_hot, ios);
  ++stats_.reservations;
}

void VirtualMemoryModel::DropAll() {
  frames_.clear();
  free_frames_.clear();
  index_.Clear();
  mru_ = kNoFrame;
  lru_ = kNoFrame;
}

std::vector<PageIo> VirtualMemoryModel::Resize(uint64_t memory_pages) {
  VOODB_CHECK_MSG(memory_pages >= 1, "VM needs at least one frame");
  params_.memory_pages = memory_pages;
  std::vector<PageIo> ios;
  while (index_.size() > params_.memory_pages) EvictOne(ios);
  return ios;
}

bool VirtualMemoryModel::IsLoaded(PageId page) const {
  const uint32_t frame = index_.Find(page);
  return frame != kNoFrame && frames_[frame].state == State::kLoaded;
}

void VirtualMemoryModel::EvictOne(std::vector<PageIo>& ios) {
  VOODB_CHECK_MSG(lru_ != kNoFrame, "no frame to evict");
  const uint32_t frame = lru_;
  Frame& victim = frames_[frame];
  Unlink(frame);
  index_.Erase(victim.page);
  free_frames_.push_back(frame);
  const PageId page = victim.page;
  victim.page = kNullPage;
  if (victim.state == State::kReserved) {
    ++stats_.reserved_evictions;  // nothing was loaded; no I/O
    return;
  }
  if (victim.dirty) {
    ++stats_.swap_writes;
    ios.push_back(PageIo{PageIo::Kind::kWrite, page});
  }
}

void VirtualMemoryModel::AllocateFrame(PageId page, State state, bool dirty,
                                       bool hot, std::vector<PageIo>& ios) {
  while (index_.size() >= params_.memory_pages) EvictOne(ios);
  uint32_t frame;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    frame = static_cast<uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  Frame& f = frames_[frame];
  f.page = page;
  f.state = state;
  f.dirty = dirty;
  index_.Insert(page, frame);
  if (hot) {
    LinkFront(frame);
  } else {
    LinkBack(frame);
  }
}

void VirtualMemoryModel::Unlink(uint32_t frame) {
  Frame& f = frames_[frame];
  if (f.prev != kNoFrame) {
    frames_[f.prev].next = f.next;
  } else {
    mru_ = f.next;
  }
  if (f.next != kNoFrame) {
    frames_[f.next].prev = f.prev;
  } else {
    lru_ = f.prev;
  }
  f.prev = kNoFrame;
  f.next = kNoFrame;
}

void VirtualMemoryModel::LinkFront(uint32_t frame) {
  Frame& f = frames_[frame];
  f.prev = kNoFrame;
  f.next = mru_;
  if (mru_ != kNoFrame) {
    frames_[mru_].prev = frame;
  } else {
    lru_ = frame;
  }
  mru_ = frame;
}

void VirtualMemoryModel::LinkBack(uint32_t frame) {
  Frame& f = frames_[frame];
  f.next = kNoFrame;
  f.prev = lru_;
  if (lru_ != kNoFrame) {
    frames_[lru_].next = frame;
  } else {
    mru_ = frame;
  }
  lru_ = frame;
}

}  // namespace voodb::storage

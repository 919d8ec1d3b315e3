#include "storage/buffer_manager.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "trace/recorder.hpp"
#include "util/check.hpp"

namespace voodb::storage {

BufferManager::BufferManager(uint64_t capacity_pages, ReplacementPolicy policy,
                             desp::RandomStream rng, uint32_t lru_k,
                             uint64_t num_pages)
    : capacity_(capacity_pages), engine_(policy, rng, lru_k) {
  VOODB_CHECK_MSG(capacity_ >= 1, "buffer capacity must be >= 1 page");
  frames_.reserve(std::min(capacity_, num_pages));
}

void BufferManager::SetPrefetcher(std::unique_ptr<Prefetcher> prefetcher) {
  prefetcher_ = std::move(prefetcher);
}

AccessOutcome BufferManager::Access(PageId page, bool write) {
  AccessOutcome outcome;
  outcome.hit = AccessInto(page, write, outcome.ios);
  return outcome;
}

bool BufferManager::AccessInto(PageId page, bool write,
                               std::vector<PageIo>& ios) {
  if (recorder_ != nullptr) recorder_->OnPage(page, write);
  ++stats_.accesses;
  const uint32_t frame = index_.Find(page);
  if (frame != kNoFrame) {
    ++stats_.hits;
    Frame& f = frames_[frame];
    f.dirty = f.dirty || write;
    engine_.OnAccess(frames_, frame);
    return true;
  }
  ++stats_.misses;
  Admit(page, write, ios);
  ios.push_back(PageIo{PageIo::Kind::kRead, page});
  if (prefetcher_ != nullptr) {
    prefetch_.clear();
    prefetcher_->OnMiss(page, prefetch_);
    for (PageId extra : prefetch_) {
      if (extra == page || index_.Find(extra) != kNoFrame) continue;
      Admit(extra, /*dirty=*/false, ios);
      ios.push_back(PageIo{PageIo::Kind::kRead, extra});
      ++stats_.prefetch_reads;
    }
  }
  return false;
}

void BufferManager::FlushAll(std::vector<PageIo>& ios) {
  const size_t first = ios.size();
  for (Frame& f : frames_) {
    if (f.page != kNullPage && f.dirty) {
      ios.push_back(PageIo{PageIo::Kind::kWrite, f.page});
      ++stats_.writebacks;
      f.dirty = false;
    }
  }
  // Ascending page order: deterministic, and sequential on the disk
  // model (contiguous writes skip the seek).
  std::sort(ios.begin() + static_cast<std::ptrdiff_t>(first), ios.end(),
            [](const PageIo& a, const PageIo& b) { return a.page < b.page; });
}

void BufferManager::DropAll() {
  frames_.clear();
  free_frames_.clear();
  index_.Clear();
  engine_.Reset();
}

std::vector<PageIo> BufferManager::Resize(uint64_t capacity_pages) {
  VOODB_CHECK_MSG(capacity_pages >= 1, "buffer capacity must be >= 1 page");
  std::vector<PageIo> ios;
  capacity_ = capacity_pages;
  while (index_.size() > capacity_) EvictOne(ios);
  return ios;
}

uint64_t BufferManager::DirtyPages() const {
  uint64_t n = 0;
  for (const Frame& f : frames_) n += (f.page != kNullPage && f.dirty) ? 1 : 0;
  return n;
}

void BufferManager::EvictOne(std::vector<PageIo>& ios) {
  const uint32_t victim = engine_.PickVictim(frames_, index_);
  Frame& f = frames_[victim];
  VOODB_CHECK_MSG(f.page != kNullPage, "victim frame not resident");
  if (f.dirty) {
    ios.push_back(PageIo{PageIo::Kind::kWrite, f.page});
    ++stats_.writebacks;
  }
  engine_.OnEvict(frames_, victim);
  index_.Erase(f.page);
  f.page = kNullPage;
  f.dirty = false;
  free_frames_.push_back(victim);
  ++stats_.evictions;
}

void BufferManager::Admit(PageId page, bool dirty, std::vector<PageIo>& ios) {
  while (index_.size() >= capacity_) EvictOne(ios);
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
  f.dirty = dirty;
  index_.Insert(page, frame);
  engine_.OnAdmit(frames_, frame);
}

}  // namespace voodb::storage

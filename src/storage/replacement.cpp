#include "storage/replacement.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace voodb::storage {

const char* ToString(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kRandom:
      return "RANDOM";
    case ReplacementPolicy::kFifo:
      return "FIFO";
    case ReplacementPolicy::kLfu:
      return "LFU";
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kLruK:
      return "LRU-K";
    case ReplacementPolicy::kClock:
      return "CLOCK";
    case ReplacementPolicy::kGclock:
      return "GCLOCK";
  }
  return "?";
}

// --- ReplacementEngine -------------------------------------------------------

ReplacementEngine::ReplacementEngine(ReplacementPolicy policy,
                                     desp::RandomStream rng, uint32_t lru_k)
    : policy_(policy), rng_(rng), lru_k_(lru_k) {
  VOODB_CHECK_MSG(lru_k_ >= 1, "LRU-K needs K >= 1");
  clock_increment_on_access_ = policy == ReplacementPolicy::kGclock;
}

uint64_t* ReplacementEngine::LruKHistory(uint32_t frame) {
  const size_t need = static_cast<size_t>(frame + 1) * lru_k_;
  if (lruk_history_.size() < need) lruk_history_.resize(need, 0);
  return lruk_history_.data() + static_cast<size_t>(frame) * lru_k_;
}

void ReplacementEngine::TouchLruK(std::vector<Frame>& frames,
                                  uint32_t frame) {
  Frame& f = frames[frame];
  uint64_t* hist = LruKHistory(frame);
  // Shift the (at most K) stamps one slot toward the old end and record
  // the new one in front — "most recent first", the K-th falls off.
  const uint32_t keep = std::min(f.hist_size, lru_k_ - 1);
  for (uint32_t i = keep; i > 0; --i) hist[i] = hist[i - 1];
  hist[0] = ++lruk_clock_;
  f.hist_size = std::min(f.hist_size + 1, lru_k_);
  ++f.version;
  const bool has_k = f.hist_size >= lru_k_;
  lruk_heap_.push(HeapEntry{has_k ? 1u : 0u,
                            has_k ? hist[lru_k_ - 1] : hist[0], f.version,
                            f.page});
}

void ReplacementEngine::OnAdmit(std::vector<Frame>& frames, uint32_t frame) {
  Frame& f = frames[frame];
  switch (policy_) {
    case ReplacementPolicy::kRandom:
      f.slot = static_cast<uint32_t>(random_frames_.size());
      random_frames_.push_back(frame);
      break;
    case ReplacementPolicy::kFifo:
      fifo_queue_.push_back(f.page);
      break;
    case ReplacementPolicy::kLfu:
      f.count = 1;
      f.seq = lfu_next_seq_++;
      lfu_heap_.push(HeapEntry{f.count, f.seq, 0, f.page});
      break;
    case ReplacementPolicy::kLru:
      f.prev = kNoFrame;
      f.next = lru_head_;
      if (lru_head_ != kNoFrame) frames[lru_head_].prev = frame;
      lru_head_ = frame;
      if (lru_tail_ == kNoFrame) lru_tail_ = frame;
      break;
    case ReplacementPolicy::kLruK:
      f.hist_size = 0;
      f.version = 0;
      TouchLruK(frames, frame);
      break;
    case ReplacementPolicy::kClock:
    case ReplacementPolicy::kGclock:
      f.weight = clock_initial_weight_;
      break;
  }
}

void ReplacementEngine::OnAccess(std::vector<Frame>& frames, uint32_t frame) {
  Frame& f = frames[frame];
  switch (policy_) {
    case ReplacementPolicy::kRandom:
    case ReplacementPolicy::kFifo:
      break;
    case ReplacementPolicy::kLfu:
      ++f.count;
      lfu_heap_.push(HeapEntry{f.count, f.seq, 0, f.page});
      break;
    case ReplacementPolicy::kLru:
      if (lru_head_ == frame) break;
      // Unlink, then relink at the MRU end.
      frames[f.prev].next = f.next;
      if (f.next != kNoFrame) {
        frames[f.next].prev = f.prev;
      } else {
        lru_tail_ = f.prev;
      }
      f.prev = kNoFrame;
      f.next = lru_head_;
      frames[lru_head_].prev = frame;
      lru_head_ = frame;
      break;
    case ReplacementPolicy::kLruK:
      TouchLruK(frames, frame);
      break;
    case ReplacementPolicy::kClock:
    case ReplacementPolicy::kGclock:
      f.weight = clock_increment_on_access_
                     ? std::min(f.weight + 1, clock_max_weight_)
                     : clock_initial_weight_;
      break;
  }
}

uint32_t ReplacementEngine::PickVictim(std::vector<Frame>& frames,
                                       const FrameTable& table) {
  switch (policy_) {
    case ReplacementPolicy::kRandom: {
      VOODB_CHECK_MSG(!random_frames_.empty(), "no resident pages");
      const auto i = static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(random_frames_.size()) - 1));
      return random_frames_[i];
    }
    case ReplacementPolicy::kFifo:
      while (!fifo_queue_.empty()) {
        const uint32_t frame = table.Find(fifo_queue_.front());
        if (frame != kNoFrame) return frame;
        fifo_queue_.pop_front();  // stale entry: page left the buffer
      }
      VOODB_CHECK_MSG(false, "no resident pages");
      return kNoFrame;
    case ReplacementPolicy::kLfu:
      while (!lfu_heap_.empty()) {
        const HeapEntry top = lfu_heap_.top();
        const uint32_t frame = table.Find(top.page);
        if (frame != kNoFrame && frames[frame].count == top.key1) {
          return frame;
        }
        lfu_heap_.pop();  // stale
      }
      VOODB_CHECK_MSG(false, "no resident pages");
      return kNoFrame;
    case ReplacementPolicy::kLru:
      VOODB_CHECK_MSG(lru_tail_ != kNoFrame, "no resident pages");
      return lru_tail_;
    case ReplacementPolicy::kLruK:
      while (!lruk_heap_.empty()) {
        const HeapEntry top = lruk_heap_.top();
        const uint32_t frame = table.Find(top.page);
        if (frame != kNoFrame && frames[frame].version == top.version) {
          return frame;
        }
        lruk_heap_.pop();  // stale
      }
      VOODB_CHECK_MSG(false, "no resident pages");
      return kNoFrame;
    case ReplacementPolicy::kClock:
    case ReplacementPolicy::kGclock:
      VOODB_CHECK_MSG(table.size() > 0, "no resident pages");
      while (true) {
        if (clock_hand_ >= frames.size()) clock_hand_ = 0;
        Frame& f = frames[clock_hand_];
        if (f.page == kNullPage) {  // free frame: sweep past
          ++clock_hand_;
          continue;
        }
        if (f.weight == 0) return static_cast<uint32_t>(clock_hand_);
        --f.weight;
        ++clock_hand_;
      }
  }
  VOODB_CHECK_MSG(false, "unknown replacement policy");
  return kNoFrame;
}

void ReplacementEngine::OnEvict(std::vector<Frame>& frames, uint32_t frame) {
  Frame& f = frames[frame];
  switch (policy_) {
    case ReplacementPolicy::kRandom: {
      const uint32_t last = random_frames_.back();
      random_frames_[f.slot] = last;
      frames[last].slot = f.slot;
      random_frames_.pop_back();
      break;
    }
    case ReplacementPolicy::kFifo:
    case ReplacementPolicy::kLfu:
    case ReplacementPolicy::kLruK:
      // Lazy structures: entries for the evicted page are recognized as
      // stale at victim time (the page no longer resolves to a frame).
      break;
    case ReplacementPolicy::kLru:
      if (f.prev != kNoFrame) {
        frames[f.prev].next = f.next;
      } else {
        lru_head_ = f.next;
      }
      if (f.next != kNoFrame) {
        frames[f.next].prev = f.prev;
      } else {
        lru_tail_ = f.prev;
      }
      f.prev = f.next = kNoFrame;
      break;
    case ReplacementPolicy::kClock:
    case ReplacementPolicy::kGclock:
      break;  // the cache unbinds the frame; the sweep skips free frames
  }
}

void ReplacementEngine::Reset() {
  // Restarts the policy from a clean slate (CLOCK hand at 0, lazy
  // queues/heaps emptied).  The node-based predecessors instead carried
  // stale heap entries and a hash-map-ordered free list across a drop —
  // an unreproducible iteration-order artifact, replaced here by the
  // deterministic dense restart (verified output-identical on the
  // registered scenarios that drop mid-run).
  lru_head_ = lru_tail_ = kNoFrame;
  random_frames_.clear();
  fifo_queue_.clear();
  lfu_heap_ = {};
  lruk_heap_ = {};
  clock_hand_ = 0;
  // The monotone stamps (lfu_next_seq_, lruk_clock_) survive a reset so
  // later admissions keep globally unique sequence numbers.
}

}  // namespace voodb::storage

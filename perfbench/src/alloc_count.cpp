#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>

namespace perfbench {
namespace {

constexpr int kSlots = 64;
constexpr int kUnclaimed = -1;
constexpr int kShared = -2;  ///< no slot: count through g_shared

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

// Each live thread owns one cache-line-sized slot and bumps it with a
// plain load + store (no locked instruction).  A thread gives its slot
// back when it exits: its count moves into g_shared and the slot goes
// on the free list, so a run that starts many short-lived threads never
// runs out of slots.  A thread that finds no free slot, or allocates
// after its slot was given back, counts through g_shared's atomic add.
Slot g_slots[kSlots];
Slot g_shared;
std::mutex g_mutex;  ///< guards g_free and slot hand-over
int g_free[kSlots];
int g_num_free = -1;  ///< -1 until the free list is filled

thread_local int t_slot = kUnclaimed;

int ClaimSlot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_num_free < 0) {
    for (int i = 0; i < kSlots; ++i) g_free[i] = kSlots - 1 - i;
    g_num_free = kSlots;
  }
  return g_num_free > 0 ? g_free[--g_num_free] : kShared;
}

/// Gives the thread's slot back when the thread exits.
struct SlotReleaser {
  bool armed = false;
  ~SlotReleaser() {
    const int slot = t_slot;
    t_slot = kShared;
    if (slot < 0) return;
    std::lock_guard<std::mutex> lock(g_mutex);
    std::atomic<uint64_t>& cell = g_slots[slot].count;
    g_shared.count.fetch_add(cell.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    cell.store(0, std::memory_order_relaxed);
    g_free[g_num_free++] = slot;
  }
};

thread_local SlotReleaser t_releaser;

int MySlot() {
  if (t_slot == kUnclaimed) {
    t_slot = ClaimSlot();
    // Registers the releaser's destructor for this thread.
    if (t_slot >= 0) t_releaser.armed = true;
  }
  return t_slot;
}

void CountOne() {
  const int slot = MySlot();
  if (slot >= 0) {
    std::atomic<uint64_t>& cell = g_slots[slot].count;
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  } else {
    g_shared.count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  CountOne();
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountOne();
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

uint64_t AllocCount() {
  // Under the mutex, so a slot handed back meanwhile is counted once.
  std::lock_guard<std::mutex> lock(g_mutex);
  uint64_t total = g_shared.count.load(std::memory_order_relaxed);
  for (const Slot& s : g_slots) total += s.count.load(std::memory_order_relaxed);
  return total;
}

uint64_t ThreadAllocCount() {
  const int slot = MySlot();
  return slot >= 0 ? g_slots[slot].count.load(std::memory_order_relaxed) : 0;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = perfbench::Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = perfbench::Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = perfbench::AllocateAligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = perfbench::AllocateAligned(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

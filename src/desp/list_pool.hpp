/// \file list_pool.hpp
/// \brief Many short lists threaded through one shared node pool.
///
/// The model's queues: a resource's wait queue, each locked object's
/// holders and waiters, each in-flight I/O batch's pending I/Os.  A
/// `std::deque` allocates a block every few pushes and frees it as the
/// queue drains.  A buffer per queue that keeps its capacity (a ring)
/// still ties capacity to queues: whenever the number of busy objects or
/// batches reaches a new high, some queue needs a buffer for the first
/// time and allocates, so the allocations never quite stop.  `ListPool`
/// threads every list of one owner through one node array with a free
/// list instead.  Capacity is shared by all lists, the array grows
/// geometrically, and it only grows when the *total* number of elements
/// reaches a new high — a handful of times per run.
///
/// A `List` is a small handle (head, tail, length) owned by the caller;
/// nodes are addressed by index and stay put until erased.  Erasing
/// keeps the order of the others.  Freed nodes are reset to `T()`, so an
/// erased element releases what it captured immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "desp/slot_pool.hpp"
#include "util/check.hpp"

namespace voodb::desp {

template <typename T>
class ListPool {
 public:
  static constexpr uint32_t kEnd = static_cast<uint32_t>(-1);

  struct List {
    uint32_t head = kEnd;
    uint32_t tail = kEnd;
    uint32_t size = 0;
    bool empty() const { return size == 0; }
  };

  void PushBack(List& list, T value) {
    const uint32_t node = NewNode(std::move(value));
    if (list.tail == kEnd) {
      list.head = node;
    } else {
      nodes_[list.tail].next = node;
    }
    list.tail = node;
    ++list.size;
  }

  void PushFront(List& list, T value) {
    const uint32_t node = NewNode(std::move(value));
    nodes_[node].next = list.head;
    list.head = node;
    if (list.tail == kEnd) list.tail = node;
    ++list.size;
  }

  /// Removes the node after `prev` (the head when `prev` is kEnd) and
  /// returns the node that now follows `prev`.
  uint32_t EraseAfter(List& list, uint32_t prev) {
    const uint32_t node = prev == kEnd ? list.head : nodes_[prev].next;
    VOODB_CHECK_MSG(node != kEnd, "erase past the end of a list");
    const uint32_t next = nodes_[node].next;
    if (prev == kEnd) {
      list.head = next;
    } else {
      nodes_[prev].next = next;
    }
    if (list.tail == node) list.tail = prev;
    --list.size;
    nodes_[node].value = T();
    nodes_.Free(node);
    return next;
  }

  void PopFront(List& list) { EraseAfter(list, kEnd); }

  /// Removes every element of `list`.
  void Clear(List& list) {
    for (uint32_t node = list.head; node != kEnd;) {
      const uint32_t next = nodes_[node].next;
      nodes_[node].value = T();
      nodes_.Free(node);
      node = next;
    }
    list = List{};
  }

  /// Removes every element matching `pred`, keeping the order of the
  /// others; returns how many were removed.
  template <typename Pred>
  size_t EraseIf(List& list, Pred pred) {
    size_t removed = 0;
    uint32_t prev = kEnd;
    for (uint32_t node = list.head; node != kEnd;) {
      if (pred(nodes_[node].value)) {
        node = EraseAfter(list, prev);
        ++removed;
      } else {
        prev = node;
        node = nodes_[node].next;
      }
    }
    return removed;
  }

  T& operator[](uint32_t node) { return nodes_[node].value; }
  const T& operator[](uint32_t node) const { return nodes_[node].value; }
  uint32_t Next(uint32_t node) const { return nodes_[node].next; }
  T& Front(const List& list) { return nodes_[list.head].value; }

  /// Front-to-back read-only view of one list (range-for).
  class View {
   public:
    class Iterator {
     public:
      Iterator(const ListPool* pool, uint32_t node)
          : pool_(pool), node_(node) {}
      const T& operator*() const { return (*pool_)[node_]; }
      Iterator& operator++() {
        node_ = pool_->Next(node_);
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return node_ != other.node_;
      }

     private:
      const ListPool* pool_;
      uint32_t node_;
    };
    View(const ListPool* pool, uint32_t head) : pool_(pool), head_(head) {}
    Iterator begin() const { return {pool_, head_}; }
    Iterator end() const { return {pool_, kEnd}; }

   private:
    const ListPool* pool_;
    uint32_t head_;
  };
  View Of(const List& list) const { return View(this, list.head); }

  /// Nodes ever created: bounded by the peak total length of all lists.
  size_t capacity() const { return nodes_.capacity(); }

 private:
  struct Node {
    T value{};
    uint32_t next = kEnd;
  };

  uint32_t NewNode(T value) {
    const uint32_t node = nodes_.Alloc();
    nodes_[node].value = std::move(value);
    nodes_[node].next = kEnd;
    return node;
  }

  SlotPool<Node> nodes_;
};

}  // namespace voodb::desp

/// \file test_pools.cpp
/// \brief The recycled containers of the allocation-free hot path.
#include <gtest/gtest.h>

#include <vector>

#include "desp/list_pool.hpp"
#include "desp/slot_pool.hpp"

namespace voodb::desp {
namespace {

template <typename T>
std::vector<T> Values(const ListPool<T>& pool,
                      const typename ListPool<T>::List& list) {
  std::vector<T> out;
  for (const T& v : pool.Of(list)) out.push_back(v);
  return out;
}

TEST(ListPool, KeepsOrderAcrossPushesAndErases) {
  ListPool<int> pool;
  ListPool<int>::List list;
  pool.PushBack(list, 2);
  pool.PushBack(list, 3);
  pool.PushFront(list, 1);
  pool.PushBack(list, 4);
  EXPECT_EQ(Values(pool, list), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(pool.EraseIf(list, [](int v) { return v % 2 == 0; }), 2u);
  EXPECT_EQ(Values(pool, list), (std::vector<int>{1, 3}));
  EXPECT_EQ(list.size, 2u);
  // Erasing the tail moves it back, so the next push lands behind 1.
  pool.EraseAfter(list, list.head);
  pool.PushBack(list, 5);
  EXPECT_EQ(Values(pool, list), (std::vector<int>{1, 5}));
  pool.PopFront(list);
  pool.PopFront(list);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.head, ListPool<int>::kEnd);
  EXPECT_EQ(list.tail, ListPool<int>::kEnd);
  pool.PushFront(list, 6);
  EXPECT_EQ(Values(pool, list), (std::vector<int>{6}));
  EXPECT_EQ(pool.Front(list), 6);
}

TEST(ListPool, ListsShareOneNodePool) {
  ListPool<int> pool;
  std::vector<ListPool<int>::List> lists(50);
  for (int round = 0; round < 20; ++round) {
    // Every round, a different list holds all 8 elements.
    ListPool<int>::List& list = lists[static_cast<size_t>(round) % 50];
    for (int i = 0; i < 8; ++i) pool.PushBack(list, i);
    pool.EraseIf(list, [](int) { return true; });
  }
  EXPECT_EQ(pool.capacity(), 8u);  // capacity follows the total, not lists
}

TEST(SlotPool, ReusesFreedSlotsLastInFirstOut) {
  SlotPool<std::vector<int>> pool;
  const uint32_t a = pool.Alloc();
  const uint32_t b = pool.Alloc();
  pool[a].assign(16, 1);
  pool.Free(a);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.Alloc(), a);
  EXPECT_GE(pool[a].capacity(), 16u);  // the slot kept its buffer
  pool.Free(b);
  pool.Free(a);
  EXPECT_EQ(pool.capacity(), 2u);
}

}  // namespace
}  // namespace voodb::desp

/// \file test_exp_executor.cpp
/// \brief Tests for the replication engine's thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "exp/executor.hpp"
#include "util/check.hpp"

namespace voodb::exp {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool({4});
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ++ran; });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool({0});
  EXPECT_EQ(pool.thread_count(), ThreadPool::HardwareThreads());
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPool, SlowWorkerRunsEveryQueuedTask) {
  // One worker, 50 submissions: the producer outpaces the consumer, and
  // every queued task still runs before Wait returns.
  ThreadPool pool({1});
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++ran;
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, WaitReturnsImmediatelyWhenIdle) {
  ThreadPool pool({2});
  pool.Wait();  // must not hang on an empty pool
  SUCCEED();
}

TEST(ThreadPool, RejectsBadConfiguration) {
  ThreadPool pool({1});
  EXPECT_THROW(pool.Submit(nullptr), util::Error);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool({2});
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&ran] { ++ran; });
    }
    // No Wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace voodb::exp

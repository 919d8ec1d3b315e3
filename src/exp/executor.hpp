/// \file executor.hpp
/// \brief Thread-pool executor for the replication engine.
///
/// The VOODB protocol (paper §4.2.2) runs every experiment as ~100
/// independent replications; they are embarrassingly parallel, so
/// `RunGrid` (farm.hpp) schedules them on this pool.  The pool is
/// deliberately small and boring: a fixed set of workers and a FIFO
/// queue.  `RunGrid` submits one self-scheduling task per worker, so the
/// queue never holds more tasks than there are workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace voodb::exp {

/// Configuration of a ThreadPool.
struct ExecutorOptions {
  /// Number of worker threads; 0 means ThreadPool::HardwareThreads().
  size_t threads = 0;
};

/// A fixed-size thread pool with a FIFO task queue.
class ThreadPool {
 public:
  explicit ThreadPool(ExecutorOptions options = {});
  /// Drains: finishes every queued and running task, then joins the
  /// workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for the next free worker.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  size_t thread_count() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable not_empty_;  // signalled when work (or stop) arrives
  std::condition_variable idle_;       // signalled when the pool drains
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;    // tasks currently executing
  bool stop_ = false;    // destructor: exit once the queue drains
};

}  // namespace voodb::exp

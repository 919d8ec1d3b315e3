/// \file resource.hpp
/// \brief Passive resources: capacity-limited servers with waiting queues.
///
/// Table 1 of the VOODB paper lists the passive resources of the model
/// (CPU/main memory, disk controller, database scheduler).  In DESP these
/// are `Resource` instances: a client requests (P) the resource, possibly
/// waits in a queue, holds one unit for some service time, and releases
/// (V) it.  The class collects the occupancy statistics the paper reports
/// (utilization, mean queue length, mean wait).
#pragma once

#include <cstdint>
#include <string>

#include "desp/actor.hpp"
#include "desp/list_pool.hpp"
#include "desp/scheduler.hpp"
#include "desp/slot_pool.hpp"
#include "desp/stats.hpp"

namespace voodb::desp {

/// Queueing discipline for a Resource's wait queue.
enum class QueueDiscipline {
  kFifo,      ///< first come, first served
  kLifo,      ///< last come, first served
  kPriority,  ///< highest request priority first (FIFO among equals)
};

/// Returns a human-readable name ("FIFO", ...).
const char* ToString(QueueDiscipline d);

/// A capacity-limited passive resource with a waiting queue.
///
/// Continuations are the scheduler's own `Scheduler::Action`, so a
/// request reaches the wait queue and the event list without a heap
/// allocation.  The wait queue is a `ListPool` list and AcquireFor's
/// completions wait in recycled in-service slots (at most `capacity`
/// are live), so a warmed-up resource allocates nothing per request.
class Resource : public Actor {
 public:
  /// \param scheduler the owning scheduler (must outlive the resource)
  /// \param name      used in statistics reports
  /// \param capacity  number of units that can be held simultaneously
  Resource(Scheduler* scheduler, std::string name, uint64_t capacity = 1,
           QueueDiscipline discipline = QueueDiscipline::kFifo);

  /// Requests one unit.  `on_grant` runs (as a scheduled event at the
  /// current time) once a unit is available; requests queue per the
  /// discipline.  `priority` is only meaningful for kPriority.
  void Acquire(Scheduler::Action on_grant, double priority = 0.0);

  /// Releases one unit previously granted.
  void Release();

  /// Convenience: acquire, hold for `service_time`, release, then run
  /// `on_done` (may be empty).  This is the common "serve one request"
  /// pattern: a grant event, then a FinishService event.
  void AcquireFor(SimTime service_time, Scheduler::Action on_done,
                  double priority = 0.0);

  const std::string& name() const { return actor_name(); }
  uint64_t capacity() const { return capacity_; }
  uint64_t busy() const { return busy_; }
  size_t QueueLength() const { return queue_.size; }

  /// Fraction of capacity held, averaged over time (0..1).
  double Utilization() const;
  /// Time-averaged number of waiting requests.
  double MeanQueueLength() const;
  /// Mean time spent waiting before a grant (per granted request).
  const Tally& WaitTimes() const { return wait_times_; }
  /// Total number of grants so far.
  uint64_t Grants() const { return grants_; }

 private:
  struct Waiter {
    /// Acquire: the grant continuation.  AcquireFor: the completion,
    /// moved into an in-service slot at grant time.
    Scheduler::Action action;
    double priority = 0.0;
    SimTime enqueued_at = 0.0;
    /// AcquireFor's hold time; negative for a plain Acquire.
    SimTime service_time = -1.0;
    /// Ambient trace context of the requester, restored around the grant
    /// so work done under the resource is attributed to the transaction
    /// that asked for it, not to whichever event happened to release it.
    uint32_t trace = 0;
  };

  void Enqueue(Waiter waiter);
  void GrantTo(Waiter waiter);
  void PopAndGrant();
  /// Grant event of AcquireFor: holds the unit for the service time.
  void Serve(uint32_t slot, SimTime service_time);
  /// Releases the unit, then runs the slot's completion.
  void FinishService(uint32_t slot);

  uint64_t capacity_;
  QueueDiscipline discipline_;
  uint64_t busy_ = 0;
  uint64_t grants_ = 0;
  ListPool<Waiter> waiters_;
  ListPool<Waiter>::List queue_;
  SlotPool<Scheduler::Action> in_service_;  ///< AcquireFor completions
  TimeWeighted busy_stat_;
  TimeWeighted queue_stat_;
  Tally wait_times_;
};

}  // namespace voodb::desp

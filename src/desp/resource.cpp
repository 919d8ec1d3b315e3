#include "desp/resource.hpp"

#include <utility>

namespace voodb::desp {

const char* ToString(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kFifo:
      return "FIFO";
    case QueueDiscipline::kLifo:
      return "LIFO";
    case QueueDiscipline::kPriority:
      return "PRIORITY";
  }
  return "?";
}

Resource::Resource(Scheduler* scheduler, std::string name, uint64_t capacity,
                   QueueDiscipline discipline)
    : Actor(scheduler, std::move(name)),
      capacity_(capacity),
      discipline_(discipline),
      busy_stat_(Now(), 0.0),
      queue_stat_(Now(), 0.0) {
  VOODB_CHECK_MSG(capacity_ >= 1, "resource '" << this->name()
                                               << "' needs capacity >= 1");
}

void Resource::Acquire(Scheduler::Action on_grant, double priority) {
  VOODB_CHECK_MSG(static_cast<bool>(on_grant),
                  "Acquire needs a grant continuation");
  Waiter w;
  w.action = std::move(on_grant);
  w.priority = priority;
  Enqueue(std::move(w));
}

void Resource::AcquireFor(SimTime service_time, Scheduler::Action on_done,
                          double priority) {
  VOODB_CHECK_MSG(service_time >= 0.0, "service time must be non-negative");
  Waiter w;
  w.action = std::move(on_done);
  w.priority = priority;
  w.service_time = service_time;
  Enqueue(std::move(w));
}

void Resource::Enqueue(Waiter w) {
  w.enqueued_at = Now();
  w.trace = scheduler().current_trace();
  if (busy_ < capacity_) {
    GrantTo(std::move(w));
    return;
  }
  waiters_.PushBack(queue_, std::move(w));
  queue_stat_.Update(Now(), static_cast<double>(queue_.size));
}

void Resource::Release() {
  VOODB_CHECK_MSG(busy_ > 0, "Release on idle resource '" << name() << "'");
  --busy_;
  busy_stat_.Update(Now(), static_cast<double>(busy_));
  if (!queue_.empty()) PopAndGrant();
}

void Resource::Serve(uint32_t slot, SimTime service_time) {
  CallIn(service_time, &Resource::FinishService, slot);
}

void Resource::FinishService(uint32_t slot) {
  Scheduler::Action on_done = std::move(in_service_[slot]);
  in_service_.Free(slot);
  Release();
  if (on_done) on_done();
}

double Resource::Utilization() const {
  return busy_stat_.TimeAverage(Now()) / static_cast<double>(capacity_);
}

double Resource::MeanQueueLength() const {
  return queue_stat_.TimeAverage(Now());
}

void Resource::GrantTo(Waiter waiter) {
  ++busy_;
  ++grants_;
  busy_stat_.Update(Now(), static_cast<double>(busy_));
  wait_times_.Add(Now() - waiter.enqueued_at);
  // Run the continuation as an event so grants never grow the call stack.
  // The grant event carries the *requester's* trace context: without the
  // scope it would inherit the releasing event's context (a grant fired
  // from another transaction's Release would be misattributed).
  TraceScope trace(&scheduler(), waiter.trace);
  if (waiter.service_time < 0.0) {
    After(0.0, std::move(waiter.action));
    return;
  }
  const uint32_t slot = in_service_.Alloc();
  in_service_[slot] = std::move(waiter.action);
  CallIn(0.0, &Resource::Serve, slot, waiter.service_time);
}

void Resource::PopAndGrant() {
  constexpr uint32_t kEnd = ListPool<Waiter>::kEnd;
  // The picked waiter and its predecessor (kEnd for the head).
  uint32_t pick = queue_.head;
  uint32_t before_pick = kEnd;
  if (discipline_ != QueueDiscipline::kFifo) {
    for (uint32_t prev = pick, n = waiters_.Next(pick); n != kEnd;
         prev = n, n = waiters_.Next(n)) {
      const Waiter& a = waiters_[pick];
      const Waiter& b = waiters_[n];
      // LIFO takes the last; PRIORITY the highest, and among equals the
      // first (the queue is in arrival order).
      if (discipline_ == QueueDiscipline::kLifo || b.priority > a.priority) {
        pick = n;
        before_pick = prev;
      }
    }
  }
  Waiter w = std::move(waiters_[pick]);
  waiters_.EraseAfter(queue_, before_pick);
  queue_stat_.Update(Now(), static_cast<double>(queue_.size));
  GrantTo(std::move(w));
}

}  // namespace voodb::desp

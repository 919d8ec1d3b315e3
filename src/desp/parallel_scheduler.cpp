#include "desp/parallel_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace voodb::desp {

ParallelScheduler::ParallelScheduler(size_t partitions, SimTime lookahead)
    : lookahead_(partitions > 1 ? lookahead : kInfinity) {
  VOODB_CHECK_MSG(partitions >= 1, "need at least one partition");
  VOODB_CHECK_MSG(lookahead > 0.0,
                  "lookahead must be positive — zero lookahead admits no "
                  "conservative window (lookahead="
                      << lookahead << ")");
  schedulers_.reserve(partitions);
  for (size_t i = 0; i < partitions; ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>());
  }
  mail_.resize(partitions * partitions);
}

void ParallelScheduler::SendTo(size_t from, size_t to, SimTime delay,
                               Scheduler::Action action, int priority) {
  const size_t n = schedulers_.size();
  VOODB_CHECK_MSG(from < n && to < n, "SendTo(" << from << " -> " << to
                                                << ") out of range");
  if (from == to) {
    schedulers_[from]->Schedule(delay, std::move(action), priority);
    return;
  }
  VOODB_CHECK_MSG(delay >= lookahead_, "SendTo delay "
                                            << delay
                                            << " below the lookahead "
                                            << lookahead_ << " (" << from
                                            << " -> " << to << ")");
  mail_[from * n + to].push_back(Envelope{
      schedulers_[from]->Now() + delay, priority, std::move(action)});
}

void ParallelScheduler::DeliverMail() {
  const size_t n = schedulers_.size();
  for (size_t to = 0; to < n; ++to) {
    merged_.clear();
    for (size_t from = 0; from < n; ++from) {
      std::vector<Envelope>& box = mail_[from * n + to];
      for (Envelope& envelope : box) merged_.push_back(std::move(envelope));
      box.clear();
    }
    if (merged_.empty()) continue;
    // Stable: equal (time, priority) keeps source-ascending order and
    // per-edge FIFO, so the target's seq assignment — and with it the
    // whole downstream execution — is a pure function of mailbox
    // contents.  (An index sort with the position as last key:
    // std::stable_sort would allocate a buffer every window.)
    order_.resize(merged_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
      const Envelope& x = merged_[a];
      const Envelope& y = merged_[b];
      if (x.time != y.time) return x.time < y.time;
      if (x.priority != y.priority) return x.priority > y.priority;
      return a < b;
    });
    cross_events_ += merged_.size();
    for (const uint32_t i : order_) {
      Envelope& envelope = merged_[i];
      schedulers_[to]->ScheduleAt(envelope.time, std::move(envelope.action),
                                  envelope.priority);
    }
  }
}

uint64_t ParallelScheduler::Run() {
  const uint64_t executed_before = ExecutedEvents();
  for (;;) {
    DeliverMail();
    SimTime start = kInfinity;
    for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
      SimTime next;
      if (partition->PeekNextTime(&next)) start = std::min(start, next);
    }
    if (start == kInfinity) break;  // drained (DeliverMail ran first)
    const SimTime end = start + lookahead_;
    for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
      partition->RunWindow(end);
    }
    ++windows_;
  }
  return ExecutedEvents() - executed_before;
}

SimTime ParallelScheduler::MaxNow() const {
  SimTime now = 0.0;
  for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
    now = std::max(now, partition->Now());
  }
  return now;
}

uint64_t ParallelScheduler::ExecutedEvents() const {
  uint64_t executed = 0;
  for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
    executed += partition->ExecutedEvents();
  }
  return executed;
}

}  // namespace voodb::desp

#include "desp/parallel_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "exp/executor.hpp"

namespace voodb::desp {

namespace {

/// A waiting crew member first spins on `pause` (~25 ns each on a
/// 2.1 GHz Sapphire Rapids Xeon, so ~3 us): the usual wait, for a
/// partner finishing its share of a window (~10 us on the sharded
/// model), never leaves the core.
constexpr int kPauseSpins = 128;
/// Then it yields the core between checks (~0.4 us a yield there when
/// nothing else is runnable, so ~100 us) before it parks.  A partner
/// sharing the core, or queued behind another process on a busy machine,
/// runs at once instead of after the waiter's spin (pause-only spinning
/// as long made a run pinned to one core ~10x slower).
constexpr int kYieldSpins = 256;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

/// The barrier of one Run() call.  Member 0 fills in the window (`end`,
/// `disbanded`, a zeroed `arrived`) and bumps `epoch`; the other members
/// read them after seeing the bump, run their share and count themselves
/// into `arrived`.  Both words are seq_cst so the parking handshake in
/// Await/Wake cannot lose a wake-up; the fields each one publishes ride
/// on its release/acquire edge.
struct ParallelScheduler::Crew {
  struct Failure {
    size_t partition = 0;
    std::exception_ptr error;  ///< null: the member's share ran clean
  };

  explicit Crew(size_t capacity) : failures(capacity) {}

  /// Spins on `ready`, then yields, then parks on the condition variable
  /// until it holds.
  template <typename Ready>
  void Await(const Ready& ready) {
    for (int i = 0; i < kPauseSpins; ++i) {
      if (ready()) return;
      CpuRelax();
    }
    for (int i = 0; i < kYieldSpins; ++i) {
      if (ready()) return;
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mu);
    parked.fetch_add(1);
    cv.wait(lock, ready);
    parked.fetch_sub(1);
  }

  /// Wakes parked members; call after the store their `ready` reads.
  /// Either this load sees a waiter's `parked` increment, or that
  /// waiter's predicate check (which follows its increment) sees the
  /// store.  A waiter still between its check and its wait holds `mu`,
  /// so taking `mu` here orders the notify after its wait begins.
  void Wake() {
    if (parked.load() == 0) return;
    { std::lock_guard<std::mutex> lock(mu); }
    cv.notify_all();
  }

  /// Rethrows the error of the lowest failing partition, if any.
  void RethrowFirstFailure() const {
    const Failure* first = nullptr;
    for (const Failure& failure : failures) {
      if (failure.error != nullptr &&
          (first == nullptr || failure.partition < first->partition)) {
        first = &failure;
      }
    }
    if (first != nullptr) std::rethrow_exception(first->error);
  }

  // Written by member 0 before each bump of `epoch`.
  alignas(64) std::atomic<uint64_t> epoch{0};
  size_t size = 1;  ///< members, the calling thread included
  SimTime end = 0.0;
  bool disbanded = false;
  /// Members 1..size-1 done with the current window.
  alignas(64) std::atomic<size_t> arrived{0};
  alignas(64) std::atomic<int> parked{0};
  std::mutex mu;
  std::condition_variable cv;
  /// Indexed by member; each slot written only by its member.
  std::vector<Failure> failures;
};

ParallelScheduler::ParallelScheduler(Options options)
    : explicit_window_(options.window) {
  VOODB_CHECK_MSG(options.partitions >= 1, "need at least one partition");
  VOODB_CHECK_MSG(options.window >= 0.0,
                  "window width cannot be negative (window="
                      << options.window << ")");
  schedulers_.reserve(options.partitions);
  for (size_t i = 0; i < options.partitions; ++i) {
    schedulers_.push_back(std::make_unique<Scheduler>());
  }
  const size_t n = options.partitions;
  edge_delay_.assign(n * n, kInfinity);
  mail_.resize(n * n);
}

void ParallelScheduler::SetEdgeDelay(size_t from, size_t to,
                                     SimTime min_delay) {
  const size_t n = schedulers_.size();
  VOODB_CHECK_MSG(from < n && to < n, "edge (" << from << " -> " << to
                                               << ") out of range");
  VOODB_CHECK_MSG(from != to, "an edge to self has no lookahead to register");
  VOODB_CHECK_MSG(min_delay > 0.0,
                  "edge delay must be positive — zero lookahead admits no "
                  "conservative window (delay="
                      << min_delay << ")");
  edge_delay_[from * n + to] = min_delay;
}

void ParallelScheduler::SetUniformEdgeDelay(SimTime min_delay) {
  const size_t n = schedulers_.size();
  for (size_t from = 0; from < n; ++from) {
    for (size_t to = 0; to < n; ++to) {
      if (from != to) SetEdgeDelay(from, to, min_delay);
    }
  }
}

SimTime ParallelScheduler::Lookahead() const {
  SimTime lookahead = kInfinity;
  for (const SimTime delay : edge_delay_) {
    lookahead = std::min(lookahead, delay);
  }
  return lookahead;
}

SimTime ParallelScheduler::Window() const {
  if (explicit_window_ > 0.0) {
    VOODB_CHECK_MSG(explicit_window_ <= Lookahead(),
                    "explicit window " << explicit_window_
                                       << " exceeds the minimum edge delay "
                                       << Lookahead()
                                       << " — not conservative");
    return explicit_window_;
  }
  return Lookahead();
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
  const SimTime edge = edge_delay_[from * n + to];
  VOODB_CHECK_MSG(edge < kInfinity, "SendTo on unregistered edge ("
                                        << from << " -> " << to << ")");
  VOODB_CHECK_MSG(delay >= edge, "SendTo delay " << delay
                                                 << " below the registered "
                                                    "edge delay "
                                                 << edge << " (" << from
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
    // contents, not of which thread ran which partition.  (An index sort
    // with the position as last key: std::stable_sort would allocate a
    // buffer every window.)
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

void ParallelScheduler::RunShare(Crew& crew, size_t member) {
  size_t p = member;
  try {
    for (; p < schedulers_.size(); p += crew.size) {
      schedulers_[p]->RunWindow(crew.end);
    }
  } catch (...) {
    crew.failures[member] = {p, std::current_exception()};
  }
}

void ParallelScheduler::LeadWindows(Crew& crew) {
  const SimTime window = Window();
  for (;;) {
    DeliverMail();
    SimTime start = kInfinity;
    for (const std::unique_ptr<Scheduler>& partition : schedulers_) {
      if (partition->HasNextEvent()) {
        start = std::min(start, partition->NextEventTime());
      }
    }
    if (start == kInfinity) return;  // drained (DeliverMail ran first)
    crew.end = window == kInfinity ? kInfinity : start + window;
    crew.arrived.store(0, std::memory_order_relaxed);
    crew.epoch.fetch_add(1);
    crew.Wake();
    RunShare(crew, 0);
    crew.Await([&crew] { return crew.arrived.load() == crew.size - 1; });
    crew.RethrowFirstFailure();
    ++windows_;
  }
}

void ParallelScheduler::FollowWindows(Crew& crew, size_t member) {
  // Member 0 bumps the epoch once per window and waits for every member
  // before the next bump, so each bump is exactly one past the last seen.
  for (uint64_t seen = 0;; ++seen) {
    crew.Await([&crew, seen] { return crew.epoch.load() != seen; });
    if (crew.disbanded) return;
    RunShare(crew, member);
    if (crew.arrived.fetch_add(1) + 1 == crew.size - 1) crew.Wake();
  }
}

uint64_t ParallelScheduler::Run(exp::ThreadPool* pool) {
  const uint64_t executed_before = ExecutedEvents();
  const size_t wanted =
      pool == nullptr ? 1
                      : std::min({schedulers_.size(), pool->thread_count(),
                                  exp::ThreadPool::HardwareThreads()});
  Crew crew(wanted);
  std::exception_ptr error;
  try {
    // Only members the pool accepts join: a cancelled pool takes none and
    // the calling thread runs every partition.  Members read `size` only
    // after the first epoch bump, by which time it is final.
    while (crew.size < wanted &&
           pool->Submit([this, &crew, member = crew.size] {
             FollowWindows(crew, member);
           })) {
      ++crew.size;
    }
    LeadWindows(crew);
  } catch (...) {
    error = std::current_exception();
  }
  crew.disbanded = true;
  crew.epoch.fetch_add(1);
  crew.Wake();
  if (crew.size > 1) pool->Wait();  // the crew must leave before `crew` dies
  if (error != nullptr) std::rethrow_exception(error);
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

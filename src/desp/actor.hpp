/// \file actor.hpp
/// \brief Base class for active resources (VOODB paper, Table 2).
///
/// In the paper's "resource view", active resources are classes whose
/// functioning rules are methods activated by the scheduler.  `Actor`
/// captures that contract once: it owns the actor's name and scheduler
/// binding and provides typed scheduling helpers, so concrete actors
/// (the voodb managers, `desp::Resource`, the failure injector) schedule
/// member functions directly instead of hand-rolling `this`-capturing
/// lambdas on every hot path.  The helpers produce small POD captures
/// (object pointer + member-function pointer + bound arguments) that fit
/// the scheduler's inline callback storage, keeping the schedule path
/// allocation-free.
#pragma once

#include <string>
#include <tuple>
#include <utility>

#include "desp/scheduler.hpp"

namespace voodb::desp {

/// An active resource bound to a scheduler.
class Actor {
 public:
  Actor(Scheduler* scheduler, std::string name)
      : scheduler_(scheduler), name_(std::move(name)) {
    VOODB_CHECK_MSG(scheduler_ != nullptr,
                    "actor '" << name_ << "' needs a scheduler");
    tag_ = scheduler_->RegisterProfileTag(name_);
  }

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const std::string& actor_name() const { return name_; }
  Scheduler& scheduler() const { return *scheduler_; }

  /// Current simulated time.
  SimTime Now() const { return scheduler_->Now(); }

  /// This actor's profiling tag (interned from its name at construction);
  /// events scheduled through the Actor helpers are attributed to it.
  uint16_t profile_tag() const { return tag_; }

 protected:
  ~Actor() = default;  // not intended for polymorphic ownership

  /// Schedules `action` to run `delay` time units from now.
  EventHandle After(SimTime delay, Scheduler::Action action,
                    int priority = 0) {
    TagScope scope(scheduler_, tag_);
    return scheduler_->Schedule(delay, std::move(action), priority);
  }

  /// Schedules `action` at absolute time `when`.
  EventHandle At(SimTime when, Scheduler::Action action, int priority = 0) {
    TagScope scope(scheduler_, tag_);
    return scheduler_->ScheduleAt(when, std::move(action), priority);
  }

  /// Typed helper: schedules `(self->*method)(bound...)` to run `delay`
  /// time units from now, where `self` is this actor downcast to the
  /// concrete type naming `method`.  Bound arguments travel in the event's
  /// arena record and are moved out to the method when it fires.
  template <typename Self, typename... Args, typename... Bound>
  EventHandle CallIn(SimTime delay, void (Self::*method)(Args...),
                     Bound&&... bound) {
    static_assert(std::is_base_of_v<Actor, Self>,
                  "CallIn schedules methods of Actor subclasses");
    TagScope scope(scheduler_, tag_);
    return scheduler_->Schedule(
        delay, BindMethod(static_cast<Self*>(this), method,
                          std::forward<Bound>(bound)...));
  }

  /// As CallIn, with an event priority.
  template <typename Self, typename... Args, typename... Bound>
  EventHandle CallInWithPriority(SimTime delay, int priority,
                                 void (Self::*method)(Args...),
                                 Bound&&... bound) {
    static_assert(std::is_base_of_v<Actor, Self>,
                  "CallIn schedules methods of Actor subclasses");
    TagScope scope(scheduler_, tag_);
    return scheduler_->Schedule(
        delay,
        BindMethod(static_cast<Self*>(this), method,
                   std::forward<Bound>(bound)...),
        priority);
  }

 private:
  /// The bound call as a lambda (not an Action), so the scheduler builds
  /// it directly in the event's arena record.
  template <typename Self, typename Method, typename... Bound>
  static auto BindMethod(Self* self, Method method, Bound&&... bound) {
    return [self, method,
            args = std::make_tuple(std::forward<Bound>(bound)...)]() mutable {
      std::apply(
          [self, method](auto&&... unpacked) {
            (self->*method)(std::move(unpacked)...);
          },
          std::move(args));
    };
  }

  Scheduler* scheduler_;
  std::string name_;
  uint16_t tag_ = 0;
};

}  // namespace voodb::desp

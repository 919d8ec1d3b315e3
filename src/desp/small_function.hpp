/// \file small_function.hpp
/// \brief A move-only callable with small-buffer optimization.
///
/// The scheduler fires millions of events per experiment; wrapping every
/// event action in a `std::function` (16-byte inline buffer in libstdc++)
/// forced a heap allocation for any capture beyond two words.
/// SmallFunction stores callables up to `kInlineBytes` in place and falls
/// back to the heap only for outsized captures.  It is the one
/// continuation type of the model: events, resource grants, protocol
/// decisions and the actors' completion callbacks all use it, so a
/// continuation handed down through several layers is moved, never
/// wrapped.  `Emplace` builds a callable straight into an existing
/// SmallFunction, which is how the scheduler constructs each event's
/// action in its arena record without an intermediate move.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace voodb::desp {

/// Move-only `void()` callable with a large inline buffer.
class SmallFunction {
 public:
  /// Inline capture budget.  Model continuations bind an object pointer
  /// plus a few words (a pooled slot index or handle, a timestamp, a page
  /// span): 16-40 bytes.  The largest fill it exactly: a bound
  /// `Actor::CallIn` of `Resource::Serve` (`this`, a 16-byte member
  /// pointer, a slot, a time), the sharded driver's cross-shard hop, a
  /// granted cc access and a buffered object access.  A submission
  /// binds only `{this, user}`: the transaction waits in its user's
  /// recycled buffer.  Parked continuations (a reorganization's `done`,
  /// an `AcquireFor` completion) wait in a `desp::SlotPool` slot rather
  /// than in a bigger buffer, which would enlarge every queued waiter
  /// and event record.  With the ops pointer a SmallFunction is 48 bytes.
  static constexpr size_t kInlineBytes = 40;

  /// True when `F` is stored in place (no heap allocation).
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFunction(F&& f) {  // NOLINT(runtime/explicit)
    Emplace(std::forward<F>(f));
  }

  /// Replaces the stored callable with `f`, built directly in this
  /// function's storage.  Emplacing a SmallFunction moves it; emplacing
  /// `nullptr` or an empty wrapped callable (default-constructed
  /// std::function, null function pointer) leaves this function empty,
  /// so callers' static_cast<bool> checks keep rejecting it instead of
  /// throwing bad_function_call when it is invoked.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, SmallFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "SmallFunction is move-only: emplace an rvalue");
      *this = std::move(f);
    } else if constexpr (std::is_same_v<Fn, std::nullptr_t>) {
      Reset();
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&>,
                    "SmallFunction holds void() callables");
      Reset();
      if constexpr (std::is_constructible_v<bool, Fn&>) {
        if (!f) return;
      }
      if constexpr (kFitsInline<Fn>) {
        ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(f));
        ops_ = &InlineOps<Fn>::ops;
      } else {
        *reinterpret_cast<Fn**>(buffer_) = new Fn(std::forward<F>(f));
        ops_ = &HeapOps<Fn>::ops;
      }
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { MoveFrom(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buffer_); }

  /// Destroys the stored callable (releasing captured resources eagerly).
  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    /// Null for trivially destructible inline callables, so releasing
    /// the common pointer-and-index captures costs no indirect call.
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops = {
        &Invoke, &Relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
    }
    static void Destroy(void* p) { delete *static_cast<Fn**>(p); }
    static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(SmallFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buffer_, other.buffer_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace voodb::desp

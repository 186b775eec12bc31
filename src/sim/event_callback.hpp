// event_callback.hpp — inline-storage event callback.
//
// The simulator's previous hot path paid one heap allocation per scheduled
// event (std::function's type erasure spills even modest lambda captures).
// EventCallback stores the capture inline in a fixed 48-byte buffer — large
// enough for every callback the protocol simulation schedules (a `this`
// pointer plus a handful of scalars) and for a std::function<void()> — and
// type-erases invoke/relocate/destroy through a single static ops table per
// callable type. Inline is the only storage: a callable that does not fit
// is a compile error (the constructor is constrained on fitsInline), so a
// grown capture shows up at build time instead of as a silent slow path.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace affinity {

/// Move-only type-erased `void()` callable with inline storage.
class EventCallback {
 public:
  /// Inline capture capacity. Sized so the whole object is one cache line.
  static constexpr std::size_t kInlineSize = 48;

  /// True when F's capture fits the inline buffer — the constructor's
  /// requirement.
  template <typename F>
  [[nodiscard]] static constexpr bool fitsInline() noexcept {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t);
  }

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&> && fitsInline<F>()>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): callable sink
    using Fn = std::decay_t<F>;
    static_assert(std::is_move_constructible_v<Fn>,
                  "event callbacks must be move-constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &ops<Fn>;
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      stealFrom(other);
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        stealFrom(other);
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Destroys the held callable, leaving empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial_destroy) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(unsigned char* buf);
    // Move-constructs into `to` and destroys the source representation.
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* buf) noexcept;
    // Fast-path flags, checked with a (well-predicted) branch so the common
    // trivially-copyable captures skip the indirect relocate/destroy calls
    // entirely. The simulator moves callbacks on every bucket swap-remove,
    // so this is hot.
    bool trivial_relocate;  // relocate == memcpy of the inline buffer
    bool trivial_destroy;   // destroy is a no-op
  };

  // Relocates `other`'s callable into *this (ops_ already copied).
  void stealFrom(EventCallback& other) noexcept {
    if (ops_->trivial_relocate) {
      __builtin_memcpy(buf_, other.buf_, kInlineSize);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static constexpr Ops ops = {
      [](unsigned char* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](unsigned char* from, unsigned char* to) noexcept {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (static_cast<void*>(to)) Fn(std::move(*src));
        src->~Fn();
      },
      [](unsigned char* buf) noexcept { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
      std::is_trivially_copyable_v<Fn>,
      std::is_trivially_destructible_v<Fn>,
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(EventCallback) == 64,
              "EventCallback should occupy exactly one cache line");

}  // namespace affinity

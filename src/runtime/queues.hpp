// queues.hpp — inter-thread queues for the real-thread engines.
//
// MpmcQueue: a bounded blocking multi-producer/multi-consumer queue
// (mutex + condition variables) with close() semantics — simple, correct,
// and fast enough for packet-at-a-time work items of ~100 µs. Storage is a
// ring preallocated at construction, so the steady-state frame path makes
// no global-allocator calls (the deque it replaced allocated a node per
// chunk; see util/arena.hpp for the rest of the zero-alloc story).
//
// SpscRing: a lock-free single-producer/single-consumer ring used on the
// per-worker fast path of the engine (one dispatcher, one worker).
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/mutex.hpp"

namespace affinity {

/// Bounded blocking MPMC queue. push() blocks while full; pop() blocks while
/// empty; close() wakes everyone — subsequent pushes fail and pops drain the
/// remaining items then return nullopt.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : ring_(capacity), capacity_(capacity) {
    AFF_CHECK(capacity > 0);
  }

  /// Blocking push; false if the queue was closed.
  bool push(T item) AFF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_full_.wait(mu_, [&]() AFF_REQUIRES(mu_) { return closed_ || count_ < capacity_; });
    if (closed_) return false;
    ring_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false if full or closed. On failure `item` is left
  /// intact (not moved from), so overload-policy retry loops keep the frame.
  bool tryPush(T&& item) AFF_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_ || count_ >= capacity_) return false;
      ring_[(head_ + count_) % capacity_] = std::move(item);
      ++count_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once closed and drained.
  std::optional<T> pop() AFF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_empty_.wait(mu_, [&]() AFF_REQUIRES(mu_) { return closed_ || count_ != 0; });
    if (count_ == 0) return std::nullopt;
    T item = takeFront();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop; false when empty. Usable from any thread — including
  /// a producer evicting the oldest item under a drop-oldest overload policy.
  bool tryPop(T& out) AFF_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (count_ == 0) return false;
      out = takeFront();
    }
    not_full_.notify_one();
    return true;
  }

  /// Pop bounded by `timeout`: nullopt on timeout or once closed and
  /// drained (disambiguate with drained()). Lets consumers poll fault/stop
  /// flags instead of blocking indefinitely on an idle queue.
  template <typename Rep, typename Period>
  std::optional<T> popFor(std::chrono::duration<Rep, Period> timeout) AFF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    not_empty_.wait_for(mu_, timeout,
                        [&]() AFF_REQUIRES(mu_) { return closed_ || count_ != 0; });
    if (count_ == 0) return std::nullopt;
    T item = takeFront();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Closes the queue (idempotent).
  void close() AFF_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const AFF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return count_;
  }

  /// True once the queue is closed and every item has been popped.
  [[nodiscard]] bool drained() const AFF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_ && count_ == 0;
  }

 private:
  /// Moves the oldest item out; its ring slot keeps the moved-from shell
  /// (and any capacity it owns) for reuse by a later push.
  [[nodiscard]] T takeFront() AFF_REQUIRES(mu_) {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) % capacity_;
    --count_;
    return item;
  }

  // Leaf lock: nothing is ever acquired while a queue is locked (push/pop
  // release before notifying), so it may sit under the engine's stack_mu_.
  mutable Mutex mu_{"MpmcQueue::mu_"};
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> ring_ AFF_GUARDED_BY(mu_);  // fixed slots; [head_, head_+count_)
  std::size_t head_ AFF_GUARDED_BY(mu_) = 0;
  std::size_t count_ AFF_GUARDED_BY(mu_) = 0;
  std::size_t capacity_;
  bool closed_ AFF_GUARDED_BY(mu_) = false;
};

/// Lock-free SPSC ring buffer holding exactly `capacity` items. Head and
/// tail run free (they only ever grow); the buffer is the next power of two
/// at or above `capacity`, indexed by the low bits, and the ring is full
/// when head - tail == capacity, so no slot is sacrificed.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : capacity_(capacity) {
    AFF_CHECK(capacity >= 1);
    buffer_.resize(std::bit_ceil(capacity));
    mask_ = buffer_.size() - 1;
  }

  /// Producer side; false if full. On success `item` is moved from; on
  /// failure it is left intact (so callers can retry without copies).
  bool tryPush(T& item) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == capacity_) return false;
    buffer_[head & mask_] = std::move(item);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side; false if empty.
  bool tryPop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) return false;
    out = std::move(buffer_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  std::size_t capacity_;
  alignas(64) std::atomic<std::size_t> head_{0};  // next slot to write
  alignas(64) std::atomic<std::size_t> tail_{0};  // next slot to read
};

}  // namespace affinity

// simulator.hpp — discrete-event simulation kernel.
//
// A single-threaded event calendar: events are (time, callback) pairs,
// executed in nondecreasing time order with FIFO tie-breaking (events
// scheduled earlier at the same timestamp run first — this makes simulation
// runs fully deterministic for a given seed).
//
// Hot-path design (the whole repo's figure reproductions funnel millions of
// events through here; the seed kernel paid a std::function heap allocation,
// an unordered_set insert/erase, and O(log n) binary-heap sifts per event):
//   * Callbacks live in EventCallback — inline type erasure, no per-event
//     heap allocation (a capture too large for the inline buffer does not
//     compile).
//   * Every pending event occupies a generation-stamped slot recycled
//     through a free list; an EventHandle is (slot, seq) and is valid iff
//     the slot still carries that seq. cancel() is O(1) and eager: the
//     event is unlinked immediately, leaving no tombstones.
//   * The calendar is a Brown-style calendar queue: a power-of-two ring of
//     unsorted buckets, each covering a `width_`-µs window of the current
//     "year". schedule() appends straight to the target bucket (O(1));
//     dequeue scans the cursor bucket for the (time, seq)-minimum among
//     entries whose assigned window has arrived. A rebuild (on growth and
//     on repeated empty-year rotations) sizes the ring to the live
//     population and takes the window width from the events about to run:
//     2 x the time span of the earliest half of the pending events over
//     their count, as Brown (CACM 31(10), 1988) sizes buckets from the
//     separation of the next events. A few far-future control events (a
//     ProtocolSim run's warmup reset and mid-window sample) therefore
//     cannot widen every window. On perfbench's paper and shared-LLC
//     halves a dequeue scans 3.2 and 3.8 entries per executed event,
//     against 17.9 and 17.7 with a width from the full span
//     (entriesScanned() / executedCount(); ProtocolSim publishes it as
//     sim.kernel.entries_scanned_per_event). Two shapes still scan more:
//     bursts served across several processors (their completions do not
//     exist yet when the width is taken; 5-8 entries) and events sharing
//     one timestamp, which no width separates (docs/MODEL.md §7).
//   * Buckets are structure-of-arrays: the hot dequeue scan touches three
//     dense parallel arrays (time, generation seq, assigned window — 24
//     bytes per entry instead of a 32-byte key struct), while the cold
//     fields (slot id, the cache-line-sized callback) sit in parallel
//     arrays touched only on pop/cancel of that one entry.
//   * There is one path per job: one admission path (schedule), one
//     callback storage (inline), and one scan (stepUntil) that both step()
//     and runUntil() use, so each event is found exactly once.
// Bucketing affects only performance, never order: the dequeue minimum is
// computed exactly on (time, seq), so runs are bit-for-bit identical to
// the seed kernel (locked in by tests/determinism_test.cpp).
//
// Time is a double in *microseconds* throughout this codebase: the paper's
// packet service times are hundreds of microseconds, so µs keeps the
// magnitudes readable and well within double precision for runs of many
// simulated seconds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_callback.hpp"
#include "util/check.hpp"

namespace affinity {

/// Simulated time in microseconds.
using SimTime = double;

/// Handle for cancelling a scheduled event. Default-constructed handles are
/// inert (cancel() on them is a no-op).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) noexcept : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // generation stamp: matches the slot iff still pending
};

/// The event calendar. Not thread-safe (the paper's model is a sequential
/// simulation of a parallel machine; real parallelism lives in src/runtime,
/// in core/sweep_runner, and in core/parallel_sim — all of which run
/// independent calendars per thread).
class Simulator {
 public:
  Simulator() { initBuckets(kMinBuckets, 1.0); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` (any void() callable whose capture fits
  /// EventCallback's inline buffer) to run at absolute time `at` (>= now()).
  /// Returns a handle usable with cancel().
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn) {
    AFF_CHECK(at >= now_);
    EventCallback cb(std::forward<F>(fn));
    std::uint64_t assigned = windowOf(at);
    if (assigned < cursor_) assigned = cursor_;  // competes in the current window
    const auto bucket = static_cast<std::uint32_t>(assigned & mask_);
    Bucket& b = buckets_[bucket];
    b.growFor(1);
    const std::uint32_t slot = allocSlot();
    const std::uint64_t seq = next_seq_++;
    b.appendReserved(at, seq, assigned, slot, std::move(cb));  // nothrow: reserved
    slots_[slot] = Slot{seq, bucket, static_cast<std::uint32_t>(b.size() - 1)};
    if (++live_ > 4 * (mask_ + 1)) rebuild();
    return EventHandle(slot, seq);
  }

  /// Schedules `fn` to run `delay` (>= 0) after now().
  template <typename F>
  EventHandle scheduleAfter(SimTime delay, F&& fn) {
    return schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event was pending (and is
  /// now guaranteed not to run), false if it already ran, was already
  /// cancelled, or the handle is inert.
  bool cancel(EventHandle h) noexcept;

  /// Runs events with timestamp <= `until`; afterwards the clock reads
  /// exactly `until` (even if the queue drained early). Returns the number
  /// of events executed.
  std::uint64_t runUntil(SimTime until);

  /// Runs all events to quiescence.
  std::uint64_t runAll();

  /// Executes at most one event. Returns false if none pending.
  bool step();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pendingCount() const noexcept { return live_; }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executedCount() const noexcept { return executed_; }

  /// Bucket entries the dequeue scan has examined so far (every entry of
  /// every bucket it visited, parked ones included). Divided by
  /// executedCount() it is the kernel's scan cost per event.
  [[nodiscard]] std::uint64_t entriesScanned() const noexcept { return scanned_entries_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  // Structure-of-arrays bucket. The dequeue scan walks at/seq/assigned only
  // (24 dense bytes per entry); slot and the cache-line-sized callback are
  // cold, touched only when an entry is popped, moved, or cancelled. All
  // five arrays are kept in lockstep (growFor() reserves them together, so
  // the append itself cannot throw halfway).
  struct Bucket {
    std::vector<SimTime> at;
    std::vector<std::uint64_t> seq;       // FIFO tie-break
    std::vector<std::uint64_t> assigned;  // global (un-masked) window index
    std::vector<std::uint32_t> slot;
    std::vector<EventCallback> fns;

    [[nodiscard]] std::size_t size() const noexcept { return at.size(); }

    void reserveAll(std::size_t cap) {
      fns.reserve(cap);
      slot.reserve(cap);
      assigned.reserve(cap);
      seq.reserve(cap);
      at.reserve(cap);
    }

    /// Ensures room for `extra` more entries (geometric growth).
    void growFor(std::size_t extra) {
      const std::size_t need = size() + extra;
      if (need <= at.capacity() && need <= fns.capacity()) return;
      reserveAll(std::max({need, std::size_t{4}, at.capacity() * 2}));
    }

    /// Appends one entry into capacity reserved by growFor().
    void appendReserved(SimTime t, std::uint64_t s, std::uint64_t asg, std::uint32_t sl,
                        EventCallback&& fn) noexcept {
      fns.push_back(std::move(fn));
      slot.push_back(sl);
      assigned.push_back(asg);
      seq.push_back(s);
      at.push_back(t);
    }
  };
  // Handle table entry: seq stamps the generation, (bucket, index) locates
  // the event for O(1) eager cancellation. Maintained on every entry move.
  struct Slot {
    std::uint64_t seq = 0;  // 0 = free
    std::uint32_t bucket = 0;
    std::uint32_t index = 0;
  };

  [[nodiscard]] std::uint64_t windowOf(SimTime at) const noexcept {
    return static_cast<std::uint64_t>(at * inv_width_);
  }

  // Free slots form an intrusive list threaded through Slot::index.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::uint32_t allocSlot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].index;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void freeSlot(std::uint32_t slot) noexcept {
    slots_[slot].seq = 0;
    slots_[slot].index = free_head_;
    free_head_ = slot;
  }

  /// Swap-removes bucket entry `index` (all five arrays), fixing the moved
  /// entry's slot.
  void removeEntry(Bucket& b, std::uint32_t bucket, std::uint32_t index) noexcept {
    const std::uint32_t last = static_cast<std::uint32_t>(b.size() - 1);
    if (index != last) {
      b.at[index] = b.at[last];
      b.seq[index] = b.seq[last];
      b.assigned[index] = b.assigned[last];
      b.slot[index] = b.slot[last];
      b.fns[index] = std::move(b.fns[last]);
      Slot& moved = slots_[b.slot[index]];
      moved.bucket = bucket;
      moved.index = index;
    }
    b.at.pop_back();
    b.seq.pop_back();
    b.assigned.pop_back();
    b.slot.pop_back();
    b.fns.pop_back();
  }

  /// Index of the (at, seq)-minimum entry of `b` whose window has arrived
  /// (assigned == cursor_); -1 if none.
  [[nodiscard]] int minQualifying(const Bucket& b) const noexcept;

  /// Smallest assigned window over all pending events (live_ must be > 0).
  [[nodiscard]] std::uint64_t minAssigned() const noexcept;

  /// Reacts to a full empty pass of the ring: jumps the cursor to the next
  /// populated window, or retunes the calendar if this keeps happening.
  void onEmptyRotation();

  /// Runs the earliest pending event if its time is <= `until`; false if
  /// there is none. The one dequeue scan: step() and runUntil() both call
  /// it, so each event is found once. The event's slot is released before
  /// its callback runs, so from the callback's point of view the event is
  /// no longer pending (cancel on it fails).
  bool stepUntil(SimTime until);

  void initBuckets(std::size_t nbuckets, double width);
  /// Re-buckets every pending event with a bucket count sized to the live
  /// population and a width retuned to the span of its earliest half.
  /// Called on growth and on repeated empty-year rotations.
  void rebuild();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;        // bucket count - 1 (power of two)
  double width_ = 1.0;          // µs covered by one bucket window
  double inv_width_ = 1.0;
  std::uint64_t cursor_ = 0;    // global window index the dequeue scan is at
  std::uint32_t rotations_ = 0; // empty-year rotations since the last rebuild
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t scanned_entries_ = 0;
};

}  // namespace affinity

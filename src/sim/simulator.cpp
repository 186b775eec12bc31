#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace affinity {

int Simulator::minQualifying(const Bucket& b) const noexcept {
  int best = -1;
  double best_at = std::numeric_limits<double>::infinity();
  std::uint64_t best_seq = ~std::uint64_t{0};
  // SoA scan: three dense arrays, 24 bytes per entry. The callbacks (a
  // cache line each) and the slot ids are never touched here.
  const double* at = b.at.data();
  const std::uint64_t* seq = b.seq.data();
  const std::uint64_t* assigned = b.assigned.data();
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (assigned[i] != cursor_) continue;  // parked for a later pass of the ring
    // Branchless best-update: which of two random timestamps is smaller is
    // a coin flip, so a branch here mispredicts ~half the time.
    const bool better =
        (at[i] < best_at) | ((at[i] == best_at) & (seq[i] < best_seq));
    best = better ? static_cast<int>(i) : best;
    best_at = better ? at[i] : best_at;
    best_seq = better ? seq[i] : best_seq;
  }
  return best;
}

std::uint64_t Simulator::minAssigned() const noexcept {
  std::uint64_t mn = ~std::uint64_t{0};
  for (const Bucket& b : buckets_)
    for (std::uint64_t a : b.assigned) mn = std::min(mn, a);
  return mn;
}

bool Simulator::cancel(EventHandle h) noexcept {
  if (!h.valid()) return false;
  if (h.slot_ >= slots_.size()) return false;
  const Slot s = slots_[h.slot_];
  if (s.seq != h.seq_) return false;  // already ran, cancelled, or slot reused
  removeEntry(buckets_[s.bucket], s.bucket, s.index);
  freeSlot(h.slot_);
  --live_;
  return true;
}

// Rotation handler for the dequeue scan: a full pass of the ring found no
// event in the current year, i.e. the next event is more than nbuckets
// windows ahead. Jump the cursor straight to its window (O(nbuckets
// + live)). If that keeps happening — or the ring is badly oversized for the
// population — the width/size are mistuned, so pay for a full retune.
void Simulator::onEmptyRotation() {
  if ((live_ < (mask_ + 1) / 4 && mask_ + 1 > kMinBuckets) || ++rotations_ >= 4) {
    rebuild();
  } else {
    cursor_ = minAssigned();
  }
}

bool Simulator::stepUntil(SimTime until) {
  if (live_ == 0) return false;
  std::size_t scanned = 0;
  for (;;) {
    const auto bucket = static_cast<std::uint32_t>(cursor_ & mask_);
    Bucket& b = buckets_[bucket];
    // Overlap the callback-array fetch with the key scan: if this bucket
    // has the next event, its callback is about to be moved out.
    __builtin_prefetch(b.fns.data());
    scanned_entries_ += b.size();
    const int best = minQualifying(b);
    if (best >= 0) {
      const auto i = static_cast<std::uint32_t>(best);
      const SimTime at = b.at[i];
      if (at > until) return false;
      // Move the callback out before unlinking: the callback may re-enter
      // schedule(), which can reuse the slot and rebuild the calendar.
      EventCallback fn = std::move(b.fns[i]);
      freeSlot(b.slot[i]);
      removeEntry(b, bucket, i);
      --live_;
      AFF_DCHECK(at >= now_);
      now_ = at;
      ++executed_;
      fn();
      return true;
    }
    ++cursor_;
    if (++scanned > mask_) {
      onEmptyRotation();
      scanned = 0;
    }
  }
}

bool Simulator::step() { return stepUntil(std::numeric_limits<SimTime>::infinity()); }

std::uint64_t Simulator::runUntil(SimTime until) {
  std::uint64_t ran = 0;
  while (stepUntil(until)) ++ran;
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::runAll() {
  std::uint64_t ran = 0;
  while (step()) ++ran;
  return ran;
}

void Simulator::initBuckets(std::size_t nbuckets, double width) {
  buckets_.clear();
  buckets_.resize(nbuckets);
  mask_ = nbuckets - 1;
  width_ = width;
  inv_width_ = 1.0 / width;
  cursor_ = 0;
  rotations_ = 0;
}

void Simulator::rebuild() {
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t assigned;
    std::uint32_t slot;
  };
  std::vector<Key> keys;
  std::vector<EventCallback> fns;
  keys.reserve(live_);
  fns.reserve(live_);
  for (Bucket& b : buckets_) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      keys.push_back(Key{b.at[i], b.seq[i], b.assigned[i], b.slot[i]});
      fns.push_back(std::move(b.fns[i]));
    }
  }
  // Width: ~2 events per window among the events about to run, so a
  // dequeue scans O(1) entries (Brown 1988 sizes the buckets from the
  // separation of the next events). The span is taken over the earliest
  // half of the pending events, not all of them: a run keeps a few control
  // events (the warmup reset, the mid-window sample) hundreds of packet
  // gaps ahead, and a width from the full span would put nearly every
  // packet event into one window. Any value is *correct* (ordering is
  // exact on (at, seq)); this only tunes scan lengths.
  double w = width_;
  if (keys.size() > 1) {
    std::vector<SimTime> times;
    times.reserve(keys.size());
    for (const Key& e : keys) times.push_back(e.at);
    const std::size_t near = std::max<std::size_t>(2, times.size() / 2);
    const auto near_end = times.begin() + static_cast<std::ptrdiff_t>(near);
    std::nth_element(times.begin(), near_end - 1, times.end());
    const SimTime lo = *std::min_element(times.begin(), near_end);
    if (times[near - 1] > lo) {
      w = (times[near - 1] - lo) * 2.0 / static_cast<double>(near);
    } else {
      // The near half is simultaneous: fall back to the whole span.
      const SimTime hi = *std::max_element(near_end - 1, times.end());
      if (hi > lo) w = (hi - lo) * 2.0 / static_cast<double>(times.size());
    }
  }
  if (!(w > 1e-9)) w = 1e-9;  // all-simultaneous events: keep windows finite
  // ~2 events per bucket: a handful of 24-byte scan entries share cache
  // lines, and half the bucket headers means half the header-array
  // footprint on large calendars.
  const std::size_t nb = std::bit_ceil(std::max(keys.size() / 2, kMinBuckets));
  initBuckets(nb, w);
  if (keys.empty()) {
    cursor_ = windowOf(now_);
    return;
  }
  std::uint64_t first = ~std::uint64_t{0};
  for (Key& e : keys) {
    e.assigned = windowOf(e.at);
    first = std::min(first, e.assigned);
  }
  cursor_ = first;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Bucket& b = buckets_[keys[i].assigned & mask_];
    b.growFor(1);
    b.appendReserved(keys[i].at, keys[i].seq, keys[i].assigned, keys[i].slot,
                     std::move(fns[i]));
    Slot& s = slots_[keys[i].slot];
    s.bucket = static_cast<std::uint32_t>(keys[i].assigned & mask_);
    s.index = static_cast<std::uint32_t>(b.size() - 1);
  }
}

}  // namespace affinity

#include "runtime/engine.hpp"

#include <chrono>
#include <string>

#include "util/backoff.hpp"

namespace affinity {

namespace {

using Clock = std::chrono::steady_clock;

/// Deadline for a kBlock submit; max() when unbounded.
Clock::time_point submitDeadline(const EngineOptions& options) {
  if (options.submit_deadline.count() <= 0) return Clock::time_point::max();
  return Clock::now() + options.submit_deadline;
}

/// The watchdog's view of one worker: failed when it exited while work
/// remained possible, or when its heartbeat has not advanced for
/// `stall_timeout`.
struct LivenessTrack {
  std::uint64_t last_heartbeat = 0;
  Clock::time_point last_change{};
  bool failed = false;
  bool done = false;  ///< nothing left to watch (counted, and flushed if re-homing)
};

/// Private stacks pin each stream's session state to one worker, so no
/// other worker may run its frames (no stealing), and a shared queue has no
/// placement to choose (no NIC classifier, no stealing).
EngineOptions normalized(const EngineShape& shape, EngineOptions o) {
  if (shape.private_stacks) o.steal = false;
  if (!shape.per_worker_queues) {
    o.steal = false;
    o.nic_mode = net::NicDispatchMode::kDirect;
  }
  return o;
}

/// Runs one frame through `stack`, firing the delivered observer in the
/// same critical section (when the stack is shared, the caller holds its
/// mutex) so observers see the true session delivery order.
ReceiveContext receiveOn(ProtocolStack& stack, const WorkItem& item,
                         const EngineOptions& options) {
  const ReceiveContext ctx = stack.receiveFrame(item.frame);
  if (!ctx.dropped() && options.delivered_observer) options.delivered_observer(item);
  return ctx;
}

}  // namespace

const char* dispatchPolicyName(DispatchPolicy p) noexcept {
  switch (p) {
    case DispatchPolicy::kRoundRobin:
      return "RoundRobin";
    case DispatchPolicy::kMruWorker:
      return "MRUWorker";
    case DispatchPolicy::kStreamHash:
      return "StreamHash";
  }
  return "?";
}

const char* overloadPolicyName(OverloadPolicy p) noexcept {
  switch (p) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kRejectNewest:
      return "reject-newest";
    case OverloadPolicy::kDropOldest:
      return "drop-oldest";
    case OverloadPolicy::kShedNewFlows:
      return "shed-new-flows";
  }
  return "?";
}

std::uint64_t EngineStats::droppedByStack() const noexcept {
  std::uint64_t total = 0;
  // Slot 0 is kNone (not a drop).
  for (std::size_t i = 1; i < dropped_by_reason.size(); ++i) total += dropped_by_reason[i];
  return total;
}

void exportEngineStats(const EngineStats& s, obs::MetricsRegistry& reg,
                       const std::string& prefix) {
  const auto g = [&](const char* leaf, double v) { reg.gauge(prefix + "." + leaf).set(v); };
  g("submitted", static_cast<double>(s.submitted));
  g("rejected", static_cast<double>(s.rejected));
  g("rejected_queue_full", static_cast<double>(s.rejected_queue_full));
  g("rejected_stopped", static_cast<double>(s.rejected_stopped));
  g("rejected_shed", static_cast<double>(s.rejected_shed));
  g("dropped_oldest", static_cast<double>(s.dropped_oldest));
  g("processed", static_cast<double>(s.processed));
  g("delivered", static_cast<double>(s.delivered));
  g("worker_failures", static_cast<double>(s.worker_failures));
  g("rehomed", static_cast<double>(s.rehomed));
  g("sched.steal.count", static_cast<double>(s.steals));
  g("sched.steal.jobs", static_cast<double>(s.stolen));
  g("net.dispatch.pins", static_cast<double>(s.nic_pins));
  g("net.dispatch.migrations", static_cast<double>(s.nic_migrations));
  // TransportFriendly counters stay out of the export unless the mode ran,
  // keeping direct/RSS/FDir snapshots byte-identical to before.
  if (s.nic_tfn_feedback + s.nic_tfn_deferred + s.nic_tfn_applied + s.nic_tfn_stale > 0) {
    g("net.dispatch.tfn.feedback", static_cast<double>(s.nic_tfn_feedback));
    g("net.dispatch.tfn.deferred", static_cast<double>(s.nic_tfn_deferred));
    g("net.dispatch.tfn.applied", static_cast<double>(s.nic_tfn_applied));
    g("net.dispatch.tfn.stale", static_cast<double>(s.nic_tfn_stale));
  }
  g("latency_mean_us", s.latency_mean_us);
  g("latency_p50_us", s.latency_p50_us);
  g("latency_p99_us", s.latency_p99_us);
  g("conserved", s.conserved() ? 1.0 : 0.0);
  for (std::size_t r = 1; r < s.dropped_by_reason.size(); ++r) {
    if (s.dropped_by_reason[r] == 0) continue;  // keep the export sparse
    reg.gauge(prefix + ".dropped." + dropReasonName(static_cast<DropReason>(r)))
        .set(static_cast<double>(s.dropped_by_reason[r]));
  }
  for (std::size_t w = 0; w < s.per_worker_processed.size(); ++w) {
    reg.gauge(prefix + ".worker." + std::to_string(w) + ".processed")
        .set(static_cast<double>(s.per_worker_processed[w]));
  }
}

void exportFlowStats(const EngineStats& s, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  const auto g = [&](const char* leaf, std::uint64_t v) {
    reg.gauge(prefix + "." + leaf).set(static_cast<double>(v));
  };
  g("inserts", s.flow_inserts);
  g("hits", s.flow_hits);
  g("occupancy", s.flow_occupancy);
  g("capacity", s.flow_capacity);
  g("shed", s.rejected_shed);
  g("shed_engaged", s.flow_shed_engaged);
  g("evicted_inflight", s.evicted_inflight);
  g("evicted_consumed", s.evicted_consumed);
  for (std::size_t r = 0; r < s.evicted_by_reason.size(); ++r) {
    if (s.evicted_by_reason[r] == 0) continue;  // keep the export sparse
    reg.gauge(prefix + ".evicted." + flow::evictReasonName(static_cast<flow::EvictReason>(r)))
        .set(static_cast<double>(s.evicted_by_reason[r]));
  }
}

void exportTfnStats(const EngineStats& s, obs::MetricsRegistry& reg,
                    const std::string& prefix) {
  const auto g = [&](const char* leaf, std::uint64_t v) {
    reg.gauge(prefix + "." + leaf).set(static_cast<double>(v));
  };
  g("pins", s.nic_pins);
  g("migrations", s.nic_migrations);
  g("feedback", s.nic_tfn_feedback);
  g("deferred", s.nic_tfn_deferred);
  g("applied", s.nic_tfn_applied);
  g("stale", s.nic_tfn_stale);
}

void exportArenaStats(obs::MetricsRegistry& reg, const std::string& prefix) {
  const ArenaStats s = FrameArena::totalStats();
  const auto g = [&](const char* leaf, std::uint64_t v) {
    reg.gauge(prefix + "." + leaf).set(static_cast<double>(v));
  };
  g("allocs", s.allocs);
  g("frees", s.frees);
  g("cross_thread_returns", s.cross_thread_returns);
  g("slab_refills", s.slab_refills);
  g("oversize_allocs", s.oversize_allocs);
  g("bytes_reserved", s.bytes_reserved);
}

// ----------------------------------------------------------------- Engine --

Engine::Engine(unsigned workers, const EngineShape& shape, HostConfig host,
               const EngineOptions& options)
    : workers_(workers),
      shape_(shape),
      options_(normalized(shape, options)),
      rehome_(shape.private_stacks && options_.watchdog),
      tfn_(options_.nic_mode == net::NicDispatchMode::kTransportFriendly),
      nic_(options_.nic_mode, workers, options_.tfn_window),
      per_worker_(workers) {
  AFF_CHECK(workers >= 1);
  AFF_CHECK(shape.per_worker_queues || !shape.private_stacks);
  const std::size_t capacity = options_.queue_capacity;
  if (!shape.private_stacks) {
    MutexLock lock(stack_mu_);  // uncontended pre-start; keeps the annotation exact
    stack_.emplace(host);
  }
  if (!shape.per_worker_queues) shared_queue_ = std::make_unique<MpmcQueue<WorkItem>>(capacity);
  for (unsigned w = 0; w < workers_; ++w) {
    PerWorker& pw = per_worker_[w];
    pw.redirect.store(w, std::memory_order_relaxed);
    if (shape.private_stacks) pw.stack = std::make_unique<ProtocolStack>(host);
    if (shape.per_worker_queues && options_.steal)
      pw.queue = std::make_unique<MpmcQueue<WorkItem>>(capacity);
    else if (shape.per_worker_queues)
      pw.ring = std::make_unique<SpscRing<WorkItem>>(capacity);
    // Sized so a failover chain can never block the watchdog: in the worst
    // case every other worker's ring (plus its recovery backlog) is flushed
    // into the last survivor's lane.
    if (rehome_) pw.recovery = std::make_unique<MpmcQueue<WorkItem>>(2 * workers_ * capacity);
  }
}

void Engine::openPort(std::uint16_t port, std::size_t session_queue) {
  AFF_CHECK(!started_);
  // The flow table's memory budget is fixed here, before any traffic.
  flow_.materialize(options_.flow, options_.overload == OverloadPolicy::kShedNewFlows);
  for (auto& pw : per_worker_)
    if (pw.stack) pw.stack->open(port, session_queue);
  MutexLock lock(stack_mu_);  // uncontended pre-start; keeps the annotation exact
  if (stack_) stack_->open(port, session_queue);
}

void Engine::start() {
  AFF_CHECK(!started_);
  started_ = true;
  trace_ = obs::TraceSession::active();
  if (trace_ != nullptr) {
    const std::string worker = std::string(shape_.name) + " worker ";
    for (unsigned w = 0; w < workers_; ++w)
      per_worker_[w].trace_track = trace_->track(worker + std::to_string(w));
    if (options_.watchdog) watchdog_track_ = trace_->track(std::string(shape_.name) + " watchdog");
  }
  pool_.start(workers_, [this](unsigned w, std::stop_token st) { workerLoop(w, st); });
  if (options_.watchdog)
    watchdog_ = std::jthread([this](std::stop_token st) { watchdogLoop(st); });
}

MpmcQueue<WorkItem>* Engine::mpmcOf(unsigned w) const noexcept {
  return shared_queue_ ? shared_queue_.get() : per_worker_[w].queue.get();
}

bool Engine::tryPush(unsigned w, WorkItem& item) {
  if (MpmcQueue<WorkItem>* q = mpmcOf(w)) return q->tryPush(std::move(item));
  return per_worker_[w].ring->tryPush(item);
}

bool Engine::tryPop(unsigned w, WorkItem& out) {
  if (MpmcQueue<WorkItem>* q = mpmcOf(w)) return q->tryPop(out);
  return per_worker_[w].ring->tryPop(out);
}

bool Engine::queueEmpty(unsigned w) const {
  if (const MpmcQueue<WorkItem>* q = mpmcOf(w)) return q->size() == 0;
  return per_worker_[w].ring->empty();
}

unsigned Engine::route(std::uint32_t stream) {
  unsigned w = 0;
  if (options_.nic_mode != net::NicDispatchMode::kDirect) {
    // A NIC hardware classifier picks the queue before the software policy
    // ever sees the frame (RSS indirection, or a Flow Director / TFN pin).
    w = nic_.queueOf(stream) % workers_;
  } else {
    switch (shape_.policy) {
      case DispatchPolicy::kRoundRobin:
        w = rr_next_;
        rr_next_ = (rr_next_ + 1) % workers_;
        break;
      case DispatchPolicy::kMruWorker:
        // Stay with the most recent worker; its queue depth regulates via
        // the full-queue spill in submit().
        w = mru_last_;
        break;
      case DispatchPolicy::kStreamHash:
        // Lock-free on the submit path (NicDispatcher::queueOf takes a mutex).
        w = stream % workers_;
        break;
    }
  }
  if (!rehome_) return w;
  // Follow failover redirects (bounded: each hop moves to a declared-failed
  // worker's successor; workers_ hops suffice even if every worker is dead,
  // in which case the last one in the chain absorbs the frame and stop()
  // reconciles it).
  for (unsigned hop = 0; hop < workers_; ++hop) {
    const unsigned next = per_worker_[w].redirect.load(std::memory_order_acquire);
    if (next == w) break;
    w = next;
  }
  return w;
}

bool Engine::submit(WorkItem item) {
  if (!intake_open_.load(std::memory_order_acquire)) {
    rejected_stopped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Flow admission first: a shed frame must never touch a queue. The shared
  // queue's depth doubles as the secondary shed-pressure signal; behind
  // per-worker queues occupancy is the only one.
  const bool admitted = shared_queue_
                            ? flow_.admit(item, shared_queue_->size(), options_.queue_capacity)
                            : flow_.admit(item);
  if (!admitted) return false;
  item.enqueue_tp = Clock::now();
  const std::uint32_t stream = item.stream;
  // A wired frame has exactly one queue: the shared one, a stream-hash
  // home, or the NIC's choice. Otherwise (kRoundRobin / kMruWorker) a full
  // queue spills to the next worker — the paper's MRU falls back to the
  // next-most-recent processor — and the overload policy applies only once
  // a full sweep finds no room. A wired route is re-resolved per attempt
  // when it can move while we wait (a NIC pin, a failover redirect).
  const bool wired = shared_queue_ || shape_.policy == DispatchPolicy::kStreamHash ||
                     options_.nic_mode != net::NicDispatchMode::kDirect;
  const bool reroute = options_.nic_mode != net::NicDispatchMode::kDirect || rehome_;
  unsigned w = shared_queue_ ? 0 : route(stream);
  // kBlock waits with bounded exponential backoff rather than a bare yield
  // spin: with more submitters than cores a yield loop can starve the very
  // worker that must drain the queue.
  Backoff backoff;
  const auto deadline = submitDeadline(options_);
  for (unsigned attempts = 0;; ++attempts) {
    // Open the TransportFriendly in-flight slot *before* the push (cancel
    // below on failure): a pending repin must never apply in the window
    // between routing and enqueue, or the frame would strand at the old
    // home behind a moved pin.
    if (tfn_) nic_.noteDispatched(stream);
    if (tryPush(w, item)) {
      if (shape_.policy == DispatchPolicy::kMruWorker) mru_last_ = w;
      submitted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (tfn_) nic_.noteDrained(stream);
    if (!intake_open_.load(std::memory_order_acquire)) return reject(item, rejected_stopped_);
    if (wired || attempts >= workers_) {
      MpmcQueue<WorkItem>* queue = mpmcOf(w);
      switch (options_.overload) {
        case OverloadPolicy::kDropOldest:
          if (queue != nullptr) {
            evictOldest(*queue);
            break;  // retry the push
          }
          // An SPSC ring's consumer seat belongs to the worker, so the
          // submitter cannot evict: degrade to reject-newest.
          [[fallthrough]];
        case OverloadPolicy::kRejectNewest:
        case OverloadPolicy::kShedNewFlows:  // queue-full degrades to reject-newest
          return reject(item, rejected_queue_full_);
        case OverloadPolicy::kBlock:
          // Wait only while a consumer can still reach this queue.
          if (Clock::now() >= deadline || !queueDrainable(w, wired))
            return reject(item, rejected_queue_full_);
          backoff.pause();
          break;
      }
    }
    if (!wired) {
      w = (w + 1) % workers_;
    } else if (reroute) {
      w = route(stream);
    }
  }
}

bool Engine::reject(const WorkItem& item, std::atomic<std::uint64_t>& cause) {
  flow_.release(item);  // never entered a queue; take it off the flow ledger
  cause.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Engine::evictOldest(MpmcQueue<WorkItem>& queue) {
  WorkItem victim;
  if (!queue.tryPop(victim)) return;  // a worker emptied it meanwhile
  // The victim leaves unprocessed: close its TransportFriendly in-flight
  // slot too, or the stream's pending repin could wait forever on a frame
  // that no longer exists.
  if (tfn_) nic_.noteDrained(victim.stream);
  // It was already counted submitted, so the eviction is a dropped_oldest —
  // unless its flow was evicted meanwhile: then it already sits on the
  // evicted_inflight ledger, and counting it again would double-book it.
  if (flow_.release(victim)) dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
}

bool Engine::anyWorkerAlive() const noexcept {
  if (pool_.size() == 0) return true;  // pre-start: controls not yet valid
  for (unsigned w = 0; w < workers_; ++w)
    if (!pool_.control(w).exited.load(std::memory_order_acquire)) return true;
  return false;
}

bool Engine::queueDrainable(unsigned w, bool wired) const noexcept {
  if (pool_.size() == 0) return true;  // pre-start: controls not yet valid
  // Any live worker pops the shared queue or (stealing) any MPMC queue, and
  // a spilling submit retargets every attempt. A wired per-worker queue is
  // drained by its owner only — or, when the engine re-homes, by the
  // survivor the watchdog flushes it to.
  if (shared_queue_ || options_.steal || !wired) return anyWorkerAlive();
  if (!pool_.control(w).exited.load(std::memory_order_acquire)) return true;
  return rehome_ && anyWorkerAlive();
}

void Engine::workerLoop(unsigned w, std::stop_token st) {
  PerWorker& pw = per_worker_[w];
  WorkItem item;
  // tick() is false on an injected crash: abandon everything as-is; the
  // watchdog (re-homing) or stop()'s reconcile picks up the leftovers.
  while (pool_.tick(w)) {
    bool did_work = false;
    if (shared_queue_) {
      // Timed pops (instead of blocking forever) so injected kills/stalls
      // are observable even while the shared queue is idle.
      if (auto got = shared_queue_->popFor(std::chrono::milliseconds(1))) {
        runFrame(w, *got);
        did_work = true;
      }
    } else if (tryPop(w, item)) {
      runFrame(w, item);
      did_work = true;
    }
    if (pw.recovery_pending.load(std::memory_order_acquire)) {
      // Clear before draining: a push that lands after the drain re-sets
      // the flag (push happens-before the store in flushFailed), so the
      // next iteration sees it.
      pw.recovery_pending.store(false, std::memory_order_relaxed);
      while (pw.recovery->tryPop(item)) {
        runFrame(w, item);
        did_work = true;
      }
    }
    if (did_work || (options_.steal && trySteal(w))) continue;
    if (st.stop_requested() && !intake_open_.load(std::memory_order_acquire) && queueEmpty(w) &&
        !pw.recovery_pending.load(std::memory_order_acquire))
      return;
    if (!shared_queue_) std::this_thread::yield();
  }
}

ReceiveContext Engine::receive(PerWorker& pw, const WorkItem& item) {
  if (pw.stack) return receiveOn(*pw.stack, item, options_);
  MutexLock lock(stack_mu_);
  return receiveOn(*stack_, item, options_);
}

void Engine::runFrame(unsigned w, const WorkItem& item, bool live) {
  // Orphaned by a flow eviction while queued: already on the
  // evicted_inflight ledger; consume without processing. The frame still
  // drains the TransportFriendly in-flight window, with its (stale-
  // generation) placement evidence discarded.
  if (!flow_.release(item)) {
    if (tfn_) nic_.noteDrained(item.stream, /*stale_feedback=*/true);
    return;
  }
  PerWorker& pw = per_worker_[w];
  const double t0 = trace_ != nullptr ? trace_->steadyNowUs() : 0.0;
  const ReceiveContext ctx = receive(pw, item);
  if (options_.nic_mode == net::NicDispatchMode::kFlowDirector) {
    // The pin follows whoever ran the stream — after a steal or a failover
    // re-home, new arrivals chase the new consumer while older frames drain
    // at the old home (Wu et al.).
    nic_.noteRun(item.stream, w);
  } else if (tfn_) {
    // Consumer feedback proposes the move; the dispatcher applies it only
    // after the old home's in-flight prefix drains. A drain on behalf of a
    // corpse (stop()'s reconcile, or a worker the watchdog declared dead)
    // closes the window without the placement claim — a dead consumer must
    // not attract the pin.
    if (live && !pw.dead.load(std::memory_order_acquire)) {
      nic_.noteRun(item.stream, w);
    } else {
      nic_.noteDrained(item.stream, /*stale_feedback=*/true);
    }
  }
  pw.processed.fetch_add(1, std::memory_order_relaxed);
  if (!ctx.dropped()) pw.delivered.fetch_add(1, std::memory_order_relaxed);
  ++pw.reasons[static_cast<std::size_t>(ctx.drop)];
  pw.latency.record(item.enqueue_tp);
  if (trace_ != nullptr) {
    trace_->span(pw.trace_track, "frame", t0, trace_->steadyNowUs(), item.stream,
                 static_cast<std::uint64_t>(ctx.drop));
  }
}

bool Engine::trySteal(unsigned thief) {
  // Victim: the longest peer queue (ties to the lowest index) with at least
  // two frames — singleton queues are left to their (warm) owner. The batch
  // comes off the head and is processed in order, so stealing by itself
  // never reorders a stream; only a FlowDirector pin chasing the thief does.
  unsigned victim = workers_;
  std::size_t longest = 1;
  for (unsigned q = 0; q < workers_; ++q) {
    if (q == thief) continue;
    const std::size_t depth = per_worker_[q].queue->size();
    if (depth > longest) {
      longest = depth;
      victim = q;
    }
  }
  if (victim >= workers_) return false;
  const unsigned batch = options_.steal_batch > 0 ? options_.steal_batch : 1;
  WorkItem item;
  std::uint64_t taken = 0;
  for (unsigned i = 0; i < batch && per_worker_[victim].queue->tryPop(item); ++i) {
    runFrame(thief, item);
    ++taken;
  }
  if (taken == 0) return false;
  steals_.fetch_add(1, std::memory_order_relaxed);
  stolen_.fetch_add(taken, std::memory_order_relaxed);
  return true;
}

void Engine::watchdogLoop(std::stop_token st) {
  std::vector<LivenessTrack> track(workers_);
  for (auto& t : track) t.last_change = Clock::now();
  while (!st.stop_requested()) {
    std::this_thread::sleep_for(options_.watchdog_interval);
    const auto now = Clock::now();
    for (unsigned w = 0; w < workers_; ++w) {
      LivenessTrack& t = track[w];
      if (t.done) continue;
      const WorkerControl& ctl = pool_.control(w);
      const bool exited = ctl.exited.load(std::memory_order_acquire);
      if (!t.failed) {
        const std::uint64_t hb = ctl.heartbeat.load(std::memory_order_relaxed);
        if (hb != t.last_heartbeat) {
          t.last_heartbeat = hb;
          t.last_change = now;
          if (!exited) continue;
        }
        if (!exited && now - t.last_change <= options_.stall_timeout) continue;
        t.failed = true;
        declareFailed(w, exited);
      }
      // Without re-homing the failure is only accounted: the shared queue
      // (or stealing peers) keeps draining, and stop() reconciles the rest.
      // With it, the ring can only be flushed once the worker has provably
      // left it.
      if (!rehome_) {
        t.done = true;
      } else if (exited) {
        flushFailed(w);
        t.done = true;
      }
    }
  }
}

void Engine::declareFailed(unsigned w, bool exited) {
  worker_failures_.fetch_add(1, std::memory_order_relaxed);
  if (trace_ != nullptr)
    trace_->instant(watchdog_track_, exited ? "worker exited" : "worker stalled",
                    trace_->steadyNowUs(), w);
  if (!rehome_) return;
  // Re-home to the nearest live successor. If none is left, the worker
  // keeps pointing at itself — frames pile up in its ring until stop()
  // reconciles them.
  unsigned target = w;
  for (unsigned hop = 1; hop < workers_; ++hop) {
    const unsigned candidate = (w + hop) % workers_;
    if (!per_worker_[candidate].dead.load(std::memory_order_acquire)) {
      target = candidate;
      break;
    }
  }
  per_worker_[w].dead.store(true, std::memory_order_release);
  per_worker_[w].redirect.store(target, std::memory_order_release);
  // A stalled worker that wakes up later must not race the flush of its
  // ring: ask it to exit.
  pool_.injectKill(w);
}

void Engine::flushFailed(unsigned w) {
  // Pre: the worker's thread has exited (its `exited` flag was observed),
  // so taking the ring's consumer seat is safe.
  PerWorker& pw = per_worker_[w];
  WorkItem item;
  // Snapshot first, forward second. When no live successor exists the
  // redirect chain resolves back to `w` itself; forwarding straight out of
  // `pw.recovery` would then re-push every frame into the queue being
  // popped and never terminate.
  std::vector<WorkItem> pending;
  // In-order flush: the ring first (submit order per stream), then any
  // frames that were re-homed *to* this worker before it failed.
  while (tryPop(w, item)) pending.push_back(std::move(item));
  while (pw.recovery->tryPop(item)) pending.push_back(std::move(item));
  pw.recovery_pending.store(false, std::memory_order_release);
  std::uint64_t moved = 0;
  for (auto& it : pending) {
    const unsigned target = route(it.stream);
    PerWorker& tw = per_worker_[target];
    tw.recovery->push(std::move(it));
    tw.recovery_pending.store(true, std::memory_order_release);
    // Self-parked frames (every worker dead) are reconciled by stop(),
    // not re-homed to a survivor.
    if (target != w) ++moved;
  }
  rehomed_.fetch_add(moved, std::memory_order_relaxed);
  if (trace_ != nullptr)
    trace_->instant(watchdog_track_, "ring flushed", trace_->steadyNowUs(), w);
}

void Engine::stop() {
  if (!intake_open_.exchange(false, std::memory_order_acq_rel)) return;
  if (watchdog_.joinable()) {
    watchdog_.request_stop();
    watchdog_.join();
  }
  if (shared_queue_) shared_queue_->close();
  pool_.stopAndJoin();
  // Reconcile: killed workers leave frames in their queue (and a
  // stall-failed worker may have exited after the watchdog stopped,
  // unflushed). All threads are joined, so any consumer seat is free:
  // process the leftovers inline, each counted at its queue's worker
  // (worker 0 for the shared queue).
  WorkItem item;
  for (unsigned w = 0; w < workers_; ++w) {
    while (tryPop(w, item)) runFrame(w, item, /*live=*/false);
    if (per_worker_[w].recovery)
      while (per_worker_[w].recovery->tryPop(item)) runFrame(w, item, /*live=*/false);
  }
}

std::uint64_t Engine::processedCount() const noexcept {
  std::uint64_t total = 0;
  for (const auto& pw : per_worker_) total += pw.processed.load(std::memory_order_acquire);
  return total;
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load();
  s.rejected_queue_full = rejected_queue_full_.load();
  s.rejected_stopped = rejected_stopped_.load();
  s.rejected = s.rejected_queue_full + s.rejected_stopped;
  s.dropped_oldest = dropped_oldest_.load();
  s.worker_failures = worker_failures_.load();
  s.rehomed = rehomed_.load();
  s.steals = steals_.load();
  s.stolen = stolen_.load();
  const net::NicDispatchStats ns = nic_.stats();
  s.nic_pins = ns.pins;
  s.nic_migrations = ns.migrations;
  s.nic_tfn_feedback = ns.tfn_feedback;
  s.nic_tfn_deferred = ns.tfn_deferred;
  s.nic_tfn_applied = ns.tfn_applied;
  s.nic_tfn_stale = ns.tfn_stale;
  s.per_worker_processed.reserve(workers_);
  Histogram merged(0.05, 8, 32);
  for (const auto& pw : per_worker_) {
    const std::uint64_t p = pw.processed.load();
    s.processed += p;
    s.delivered += pw.delivered.load();
    s.per_worker_processed.push_back(p);
    for (std::size_t i = 0; i < pw.reasons.size(); ++i) s.dropped_by_reason[i] += pw.reasons[i];
    merged.merge(pw.latency.histogram());
  }
  if (merged.count() > 0) {
    s.latency_mean_us = merged.mean();
    s.latency_p50_us = merged.quantile(0.50);
    s.latency_p99_us = merged.quantile(0.99);
  }
  flow_.mergeInto(s);
  return s;
}

void Engine::exportMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const {
  exportEngineStats(stats(), reg, prefix.empty() ? std::string("engine.") + shape_.name : prefix);
}

}  // namespace affinity

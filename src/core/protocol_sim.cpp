#include "core/protocol_sim.hpp"

#include <algorithm>

namespace affinity {

namespace {

// Adaptive-hybrid classifier thresholds (SimConfig::adaptive_hybrid).
constexpr double kAdaptRateThresholdPerUs = 0.004;  ///< ≈ half a processor's capacity
constexpr std::uint32_t kAdaptBatchThreshold = 4;   ///< max batch seen in a window
/// Hysteresis: consecutive quiet windows required before a hot stream is
/// demoted back to IPS (bursty streams are quiet between bursts; demoting
/// eagerly causes flapping).
constexpr std::uint32_t kAdaptDemoteWindows = 4;
/// Burstiness detector: an arrival is "clustered" when it follows the
/// stream's previous arrival within this gap (packet trains, video
/// frames). A stream whose clustered fraction exceeds the threshold in a
/// window (with at least 8 arrivals) is classified hot even if its rate is
/// modest — exactly the streams whose bursts serialize on an IPS stack.
constexpr double kAdaptClusterGapUs = 100.0;
constexpr double kAdaptClusterFraction = 0.5;

/// Share of a level's full reload transient a packet did NOT pay. A level
/// with nothing to reload (ΔL = 0) counts as perfectly warm.
double warmFraction(double paid_us, double full_us) noexcept {
  return full_us > 0.0 ? 1.0 - paid_us / full_us : 1.0;
}

}  // namespace

ProtocolSim::ProtocolSim(SimConfig config, const ExecTimeModel& model, const StreamSet& streams)
    : config_(config),
      model_(model),
      streams_(streams.clone()),
      affinity_(config.num_procs, streams.count(), config.effectiveStacks()),
      nic_wired_(config.dispatch, config.num_procs, config.tfn_window),
      nic_stack_(config.dispatch, config.effectiveStacks(), config.tfn_window),
      dispatch_rng_(Rng(config.seed).split(0xd15c)),
      proc_idle_(config.num_procs, 1),
      idle_count_(config.num_procs),
      in_service_(config.num_procs),
      wired_queues_(config.num_procs),
      stack_queues_(config.effectiveStacks()),
      stack_busy_(config.effectiveStacks(), 0),
      stack_waiting_(config.effectiveStacks(), 0),
      stacks_by_proc_(config.num_procs) {
  AFF_CHECK(config_.num_procs >= 1);
  AFF_CHECK(!streams_.streams.empty());
  const auto num_streams = static_cast<std::uint32_t>(streams_.count());
  Rng seeder(config_.seed);
  stream_rngs_.reserve(num_streams);
  for (std::uint32_t s = 0; s < num_streams; ++s) stream_rngs_.push_back(seeder.split(s + 1));

  uses_locking_.assign(num_streams, 0);
  switch (config_.policy.paradigm) {
    case Paradigm::kLocking:
      std::fill(uses_locking_.begin(), uses_locking_.end(), 1);
      break;
    case Paradigm::kIps:
      break;
    case Paradigm::kHybrid:
      for (std::uint32_t s : config_.policy.hybrid_locking_streams)
        if (s < num_streams) uses_locking_[s] = 1;
      break;
  }

  const unsigned stacks = config_.effectiveStacks();
  for (std::uint32_t k = 0; k < stacks; ++k)
    stacks_by_proc_[k % config_.num_procs].push_back(k);

  if (config_.per_stream_stats) per_stream_delay_.resize(num_streams);
  if (config_.flow.enabled) flow_table_ = std::make_unique<flow::FlowTable>(config_.flow);
  initObservability();
}

void ProtocolSim::initObservability() {
  if (config_.trace != nullptr) {
    trace_tracks_.reserve(config_.num_procs);
    for (unsigned p = 0; p < config_.num_procs; ++p)
      trace_tracks_.push_back(config_.trace->track("proc " + std::to_string(p)));
    trace_ctl_track_ = config_.trace->track("sim control");
  }
  if (config_.metrics == nullptr) return;
  obs_on_ = true;
  proc_queue_tw_.resize(config_.num_procs);
  proc_busy_tw_.resize(config_.num_procs);
}

void ProtocolSim::noteProcQueue(unsigned proc, int delta) noexcept {
  if (obs_on_) proc_queue_tw_[proc].adjust(sim_.now(), delta);
}

bool ProtocolSim::usesLocking(std::uint32_t stream) const noexcept {
  return uses_locking_[stream] != 0;
}

std::uint64_t ProtocolSim::backlogNow() const noexcept {
  return queued_count_ + (config_.num_procs - idle_count_);
}

void ProtocolSim::recordQueueChange() noexcept {
  queue_len_.set(sim_.now(), static_cast<double>(queued_count_));
  if (shard_mode_) {
    shard_ops_.push_back(ShardOp{ShardOp::Kind::kQueueLen, sim_.now(),
                                 static_cast<double>(queued_count_), 0.0, 0.0});
  }
}

void ProtocolSim::noteBusyLevel(double now, double delta) noexcept {
  busy_procs_.adjust(now, delta);
  if (shard_mode_) {
    shard_ops_.push_back(
        ShardOp{ShardOp::Kind::kBusyLevel, now, busy_procs_.level(), 0.0, 0.0});
  }
}

void ProtocolSim::shardForParallel(unsigned shard, unsigned num_shards) {
  AFF_CHECK(!ran_);
  AFF_CHECK(num_shards >= 1 && shard < num_shards);
  // Only the exactly-decomposable family may be sharded; the full predicate
  // is parallelEligible() (core/parallel_sim.hpp). These are the invariants
  // the shard machinery itself relies on.
  AFF_CHECK(config_.policy.paradigm == Paradigm::kIps &&
            config_.policy.ips == IpsPolicy::kWired && !config_.adaptive_hybrid &&
            config_.bus_occupancy_fraction == 0.0 && config_.observer == nullptr &&
            config_.metrics == nullptr && config_.trace == nullptr);
  shard_mode_ = true;
  const auto num_streams = static_cast<std::uint32_t>(streams_.count());
  owned_stream_.assign(num_streams, 0);
  for (std::uint32_t s = 0; s < num_streams; ++s) {
    // The stream's whole service chain is pinned: stream -> stack (stateless
    // NIC dispatch) -> wired processor. Owning the processor owns the chain.
    const unsigned proc = nic_stack_.queueOf(s) % config_.num_procs;
    if (proc % num_shards == shard) owned_stream_[s] = 1;
  }
}

void ProtocolSim::scheduleArrivals(std::uint32_t stream) {
  const auto a = streams_.streams[stream]->next(stream_rngs_[stream]);
  const double t = sim_.now() + a.gap_us;
  if (t > end_time_) return;
  sim_.schedule(t, [this, stream, batch = a.batch] {
    if (config_.adaptive_hybrid) {
      window_arrivals_[stream] += batch;
      if (batch > window_max_batch_[stream]) window_max_batch_[stream] = batch;
      const double now = sim_.now();
      if (last_arrival_time_[stream] >= 0.0 &&
          now - last_arrival_time_[stream] <= kAdaptClusterGapUs)
        ++window_clustered_[stream];
      window_clustered_[stream] += batch - 1;  // co-arrivals are clustered
      last_arrival_time_[stream] = now;
    }
    for (std::uint32_t k = 0; k < batch; ++k) arrivePacket(stream);
    scheduleArrivals(stream);
  });
}

int ProtocolSim::mruIdleProc() const noexcept {
  int best = -1;
  double best_time = -kColdAge;
  for (unsigned p = 0; p < config_.num_procs; ++p) {
    if (!proc_idle_[p]) continue;
    const double t = affinity_.lastProtocolTime(p);
    if (best < 0 || t > best_time) {
      best = static_cast<int>(p);
      best_time = t;
    }
  }
  return best;
}

int ProtocolSim::randomIdleProc() {
  if (idle_count_ == 0) return -1;
  std::uint64_t pick = dispatch_rng_.uniform_u64(idle_count_);
  for (unsigned p = 0; p < config_.num_procs; ++p) {
    if (!proc_idle_[p]) continue;
    if (pick == 0) return static_cast<int>(p);
    --pick;
  }
  return -1;  // unreachable
}

int ProtocolSim::chooseIdleForLocking(std::uint32_t stream) {
  if (idle_count_ == 0) return -1;
  switch (config_.policy.locking) {
    case LockingPolicy::kFcfs:
      return randomIdleProc();
    case LockingPolicy::kMru:
      return mruIdleProc();
    case LockingPolicy::kStreamMru: {
      const int lp = affinity_.lastProcOfStream(stream);
      if (lp >= 0 && proc_idle_[lp]) {
        if (obs_on_) ++stream_mru_hit_;
        return lp;
      }
      if (obs_on_) ++stream_mru_fallback_;
      return mruIdleProc();
    }
    case LockingPolicy::kWiredStreams:
    case LockingPolicy::kStealAffinity:
      break;  // handled by the caller (per-processor queues)
  }
  return -1;
}

int ProtocolSim::chooseIdleForStack(std::uint32_t stack) {
  switch (config_.policy.ips) {
    case IpsPolicy::kWired: {
      const unsigned p = stack % config_.num_procs;
      return proc_idle_[p] ? static_cast<int>(p) : -1;
    }
    case IpsPolicy::kRandom:
      return randomIdleProc();
    case IpsPolicy::kMru: {
      if (idle_count_ == 0) return -1;
      const int lp = affinity_.lastProcOfStack(stack);
      if (lp >= 0 && proc_idle_[lp]) {
        if (obs_on_) ++ips_mru_hit_;
        return lp;
      }
      if (obs_on_) ++ips_mru_fallback_;
      return mruIdleProc();
    }
  }
  return -1;
}

void ProtocolSim::arrivePacket(std::uint32_t stream) {
  ++arrived_;
  if (flow_table_ != nullptr) {
    // Charge the bounded flow table before any scheduling decision. The sim
    // is single-threaded and consumes state synchronously, so the in-flight
    // count is released immediately — the table here models *state*
    // retention, not frame custody (the runtime engines do both).
    const auto r = flow_table_->admit(stream);
    if (r.status == flow::AdmitResult::Status::kShed) {
      // Refused outright: the packet never enters a queue. Conservation
      // extends to arrived == completed + backlog + flow_shed.
      ++flow_shed_;
      return;
    }
    flow_table_->release(stream, r.gen);
    if (r.evicted && r.victim_key != flow::AdmitResult::kNoVictim) {
      // The victim's per-flow state is gone: its next packet pays the full
      // cold-reload transient wherever it lands.
      affinity_.forgetStream(r.victim_key);
    }
  }
  const double now = sim_.now();
  if (usesLocking(stream)) {
    if (wiredLocking()) {
      const unsigned p = nic_wired_.queueOf(stream);
      // TransportFriendly: the frame enters the old home's in-flight prefix
      // the moment it is routed; a deferred repin waits for it to complete.
      nic_wired_.noteDispatched(stream);
      const Job job{stream, now, p};
      if (proc_idle_[p]) {
        startService(p, job);
      } else {
        wired_queues_[p].push_back(job);
        ++queued_count_;
        recordQueueChange();
        noteProcQueue(p, +1);
        // Work stealing is what keeps wired queues from starving idle
        // processors: give the lowest-index idle one a chance right away.
        if (config_.policy.locking == LockingPolicy::kStealAffinity && idle_count_ > 0) {
          for (unsigned t = 0; t < config_.num_procs; ++t) {
            if (proc_idle_[t]) {
              trySteal(t);
              break;
            }
          }
        }
      }
      return;
    }
    const Job job{stream, now, 0};
    const int p = chooseIdleForLocking(stream);
    if (p >= 0) {
      startService(static_cast<unsigned>(p), job);
    } else {
      global_queue_.push_back(job);
      ++queued_count_;
      recordQueueChange();
    }
    return;
  }
  const std::uint32_t k = nic_stack_.queueOf(stream);
  nic_stack_.noteDispatched(stream);
  const Job job{stream, now, k};
  stack_queues_[k].push_back(job);
  ++queued_count_;
  recordQueueChange();
  noteProcQueue(k % config_.num_procs, +1);
  tryDispatchStack(k);
}

void ProtocolSim::markStackRunnable(std::uint32_t stack) {
  if (config_.policy.ips == IpsPolicy::kWired) return;  // found via stacks_by_proc_
  if (stack_waiting_[stack]) return;
  runnable_stacks_.push_back(stack);
  stack_waiting_[stack] = 1;
}

bool ProtocolSim::takeFromRunnable(std::uint32_t stack) {
  if (!stack_waiting_[stack]) return false;
  auto it = std::find(runnable_stacks_.begin(), runnable_stacks_.end(), stack);
  AFF_DCHECK(it != runnable_stacks_.end());
  runnable_stacks_.erase(it);
  stack_waiting_[stack] = 0;
  return true;
}

void ProtocolSim::tryDispatchStack(std::uint32_t stack) {
  if (stack_busy_[stack] || stack_queues_[stack].empty()) return;
  const int p = chooseIdleForStack(stack);
  if (p < 0) {
    markStackRunnable(stack);
    return;
  }
  takeFromRunnable(stack);
  const Job job = stack_queues_[stack].front();
  stack_queues_[stack].pop_front();
  --queued_count_;
  recordQueueChange();
  noteProcQueue(stack % config_.num_procs, -1);
  startService(static_cast<unsigned>(p), job);
}

void ProtocolSim::startService(unsigned proc, const Job& job, double extra_us) {
  AFF_DCHECK(proc_idle_[proc]);
  const double now = sim_.now();
  const bool locking = usesLocking(job.stream);
  CacheStateAges ages;
  std::uint32_t stack = AffinityState::kNoStack;
  if (locking) {
    ages.code = affinity_.codeAge(proc, now);
    ages.shared = affinity_.sharedAge(proc, now);
    ages.stream = affinity_.streamAge(proc, job.stream, now);
  } else {
    stack = job.queue;
    const double a = affinity_.stackAge(proc, stack, now);
    ages.code = affinity_.codeAge(proc, now);
    ages.shared = a;  // stack-private data: shared + stream components
    ages.stream = a;
    stack_busy_[stack] = 1;
  }
  if (model_.reloadParams().dl3_us > 0.0) {
    // Shared-LLC topology: the L3 term keys on where the footprint was last
    // touched *anywhere* — a migrated component is cold in the private
    // levels but usually still LLC-warm. Skipped entirely on two-level
    // machines, where the ages above reproduce the paper bit-for-bit.
    ages.code_any = affinity_.codeAgeAnywhere(now);
    if (locking) {
      ages.shared_any = affinity_.sharedAgeAnywhere(now);
      ages.stream_any = affinity_.streamAgeAnywhere(job.stream, now);
    } else {
      const double a_any = affinity_.stackAgeAnywhere(stack, now);
      ages.shared_any = a_any;
      ages.stream_any = a_any;
    }
  }
  const auto parts = model_.serviceParts(ages);
  if (obs_on_) {
    // Warm fraction per level: how much of the full reload transient this
    // packet did NOT pay (1 = perfectly warm, 0 = fully cold/migrated).
    const auto& rp = model_.reloadParams();
    l1_warm_.add(warmFraction(parts.l1, rp.dl1_us));
    l2_warm_.add(warmFraction(parts.l2, rp.dl2_us));
    if (rp.dl3_us > 0.0) l3_warm_.add(warmFraction(parts.l3, rp.dl3_us));
    proc_busy_tw_[proc].set(now, 1.0);
  }
  if (job.stolen && inMeasureWindow()) {
    steal_reload_us_ += parts.l1 + parts.l2 + parts.l3 + extra_us;
  }
  double exec = parts.total() + config_.fixed_overhead_us + extra_us;
  double lock_wait = 0.0;
  if (locking) {
    exec += config_.lock_overhead_us;
    lock_wait = std::max(0.0, lock_free_at_ - now);
    lock_free_at_ = now + lock_wait + config_.critical_section_us;
  }
  if (config_.bus_occupancy_fraction > 0.0 && parts.l2 > 0.0) {
    // The L2-reload portion occupies the shared memory bus; queue behind
    // other processors' in-flight reloads.
    const double bus_time = config_.bus_occupancy_fraction * parts.l2;
    const double bus_wait = std::max(0.0, bus_free_at_ - now);
    bus_free_at_ = now + bus_wait + bus_time;
    lock_wait += bus_wait;  // accounted with the other stall time
  }
  proc_idle_[proc] = 0;
  --idle_count_;
  noteBusyLevel(now, +1.0);
  if (config_.observer != nullptr)
    config_.observer->onServiceStart(proc, job.stream, stack, job.arrival_us, now,
                                     lock_wait + exec);
  in_service_[proc] = InService{job, lock_wait, exec};
  sim_.scheduleAfter(lock_wait + exec, [this, proc] { onComplete(proc); });
}

void ProtocolSim::feedProcessor(unsigned proc) {
  AFF_DCHECK(proc_idle_[proc]);
  // Candidate Locking job.
  std::deque<Job>* lock_queue = nullptr;
  std::size_t lock_index = 0;
  if (wiredLocking()) {
    if (!wired_queues_[proc].empty()) lock_queue = &wired_queues_[proc];
  } else if (!global_queue_.empty()) {
    lock_queue = &global_queue_;
    if (config_.policy.locking == LockingPolicy::kStreamMru) {
      // Per-processor thread pools (paper footnote 7): a freed processor
      // prefers a waiting packet whose stream last executed here, so stream
      // affinity survives high load. Bounded scan keeps dispatch O(1)-ish
      // and limits reordering.
      const std::size_t depth = std::min<std::size_t>(global_queue_.size(), 64);
      for (std::size_t i = 0; i < depth; ++i) {
        if (affinity_.lastProcOfStream((*lock_queue)[i].stream) == static_cast<int>(proc)) {
          lock_index = i;
          break;
        }
      }
    }
  }

  // Candidate IPS stack for this processor.
  int stack = -1;
  if (config_.policy.ips == IpsPolicy::kWired) {
    double oldest = 0.0;
    for (std::uint32_t k : stacks_by_proc_[proc]) {
      if (stack_busy_[k] || stack_queues_[k].empty()) continue;
      const double head = stack_queues_[k].front().arrival_us;
      if (stack < 0 || head < oldest) {
        stack = static_cast<int>(k);
        oldest = head;
      }
    }
  } else {
    // Prefer a runnable stack with affinity for this processor (MRU), else
    // the longest-waiting runnable stack.
    if (config_.policy.ips == IpsPolicy::kMru) {
      for (std::uint32_t k : runnable_stacks_) {
        if (!stack_busy_[k] && !stack_queues_[k].empty() &&
            affinity_.lastProcOfStack(k) == static_cast<int>(proc)) {
          stack = static_cast<int>(k);
          break;
        }
      }
    }
    if (stack < 0) {
      for (std::uint32_t k : runnable_stacks_) {
        if (!stack_busy_[k] && !stack_queues_[k].empty()) {
          stack = static_cast<int>(k);
          break;
        }
      }
    }
  }

  if (lock_queue == nullptr && stack < 0) {
    // No local work anywhere: the steal policy raids another wired queue
    // rather than idling (strictly a last resort, so affinity is spent only
    // when the alternative is an idle processor).
    if (config_.policy.locking == LockingPolicy::kStealAffinity) trySteal(proc);
    return;
  }
  // Hybrid fairness: serve whichever candidate's head arrived first.
  bool take_locking = lock_queue != nullptr;
  if (lock_queue != nullptr && stack >= 0) {
    take_locking =
        (*lock_queue)[lock_index].arrival_us <= stack_queues_[stack].front().arrival_us;
  }
  if (take_locking) {
    const Job job = (*lock_queue)[lock_index];
    lock_queue->erase(lock_queue->begin() + static_cast<std::ptrdiff_t>(lock_index));
    --queued_count_;
    recordQueueChange();
    if (lock_queue != &global_queue_) noteProcQueue(proc, -1);
    startService(proc, job);
  } else {
    const auto k = static_cast<std::uint32_t>(stack);
    takeFromRunnable(k);
    const Job job = stack_queues_[k].front();
    stack_queues_[k].pop_front();
    --queued_count_;
    recordQueueChange();
    noteProcQueue(k % config_.num_procs, -1);
    startService(proc, job);
  }
}

bool ProtocolSim::trySteal(unsigned thief) {
  AFF_DCHECK(proc_idle_[thief]);
  if (!wired_queues_[thief].empty()) return false;  // own work first
  const double now = sim_.now();
  // Victim: the queue whose head stream is coldest at its own home — that
  // job has the least warm state to forfeit by migrating. Ties go to the
  // longest backlog (the load-imbalance signal), then the lowest index
  // (determinism).
  int victim = -1;
  double best_age = 0.0;
  std::size_t best_len = 0;
  const std::size_t min_len = std::max<unsigned>(config_.steal_min_queue, 1);
  for (unsigned q = 0; q < config_.num_procs; ++q) {
    if (q == thief || wired_queues_[q].size() < min_len) continue;
    const double age = affinity_.streamAge(q, wired_queues_[q].front().stream, now);
    const std::size_t len = wired_queues_[q].size();
    if (victim < 0 || age > best_age || (age == best_age && len > best_len)) {
      victim = static_cast<int>(q);
      best_age = age;
      best_len = len;
    }
  }
  if (victim < 0) return false;
  auto& vq = wired_queues_[static_cast<unsigned>(victim)];
  const std::size_t take =
      std::min<std::size_t>(std::max<unsigned>(config_.steal_batch, 1), vq.size());
  ++steals_;
  stolen_jobs_ += take;
  // FlowDirector's pin follows the theft immediately (packet-triggered
  // update — the pathology). TransportFriendly learns only from the thief's
  // *completions* (onComplete feedback), so the steal itself must not touch
  // the pin here: doing so would also double-drain the in-flight window.
  const bool fdir = config_.dispatch == net::NicDispatchMode::kFlowDirector;
  Job first = vq.front();
  vq.pop_front();
  first.queue = thief;
  first.stolen = true;
  if (fdir) nic_wired_.noteRun(first.stream, thief);
  for (std::size_t i = 1; i < take; ++i) {
    Job j = vq.front();
    vq.pop_front();
    j.queue = thief;
    j.stolen = true;
    if (fdir) nic_wired_.noteRun(j.stream, thief);
    wired_queues_[thief].push_back(j);
  }
  noteProcQueue(static_cast<unsigned>(victim), -static_cast<int>(take));
  if (take > 1) noteProcQueue(thief, static_cast<int>(take - 1));
  --queued_count_;
  recordQueueChange();
  startService(thief, first, config_.steal_penalty_us);
  return true;
}

void ProtocolSim::onComplete(unsigned proc) {
  // A copy: feedProcessor() below may start this processor's next job.
  const auto [job, lock_wait, exec] = in_service_[proc];
  const double now = sim_.now();
  const bool locking = usesLocking(job.stream);
  const std::uint32_t stack = locking ? AffinityState::kNoStack : job.queue;
  affinity_.onComplete(proc, job.stream, stack, now);
  if (locking) {
    if (wiredLocking() && nic_wired_.noteRun(job.stream, proc)) {
      // A deferred transport-friendly repin just applied: the stream's warm
      // footprint at the old home is forfeited, so its next packet pays the
      // cold-reload transient at the new one — the deliberate migration's
      // cost, charged through the same cache model as every other one.
      affinity_.forgetStream(job.stream);
    }
  } else {
    // Stack pins never move (a stream's stack is fixed), so TFN feedback
    // here only closes the in-flight window; no repin can apply.
    (void)nic_stack_.noteRun(job.stream, job.queue);
  }
  if (config_.observer != nullptr) config_.observer->onServiceEnd(proc, job.stream, stack, now);
  ++completed_total_;
  if (config_.trace != nullptr) {
    config_.trace->span(trace_tracks_[proc], locking ? "service (locking)" : "service (ips)",
                        now - (lock_wait + exec), now, job.stream,
                        stack == AffinityState::kNoStack ? 0 : stack);
  }
  if (obs_on_) proc_busy_tw_[proc].set(now, 0.0);

  if (inMeasureWindow()) {
    const double delay = now - job.arrival_us;
    delay_.add(delay);
    delay_batches_.add(delay);
    delay_hist_.add(delay);
    service_.add(exec);
    lock_wait_.add(lock_wait);
    ++completed_;
    if (config_.per_stream_stats) per_stream_delay_[job.stream].add(delay);
    if (shard_mode_) {
      shard_ops_.push_back(ShardOp{ShardOp::Kind::kCompletion, now, delay, exec, lock_wait});
    }
  }

  if (stack != AffinityState::kNoStack) {
    stack_busy_[stack] = 0;
    if (!stack_queues_[stack].empty()) markStackRunnable(stack);
  }
  proc_idle_[proc] = 1;
  ++idle_count_;
  noteBusyLevel(now, -1.0);
  feedProcessor(proc);
  if (stack != AffinityState::kNoStack) tryDispatchStack(stack);
}

void ProtocolSim::adaptStreams() {
  const double interval = config_.adapt_interval_us;
  for (std::uint32_t s = 0; s < uses_locking_.size(); ++s) {
    const double rate = static_cast<double>(window_arrivals_[s]) / interval;
    const bool clustered =
        window_arrivals_[s] >= 8 &&
        static_cast<double>(window_clustered_[s]) >
            kAdaptClusterFraction * static_cast<double>(window_arrivals_[s]);
    const bool hot = rate > kAdaptRateThresholdPerUs ||
                     window_max_batch_[s] >= kAdaptBatchThreshold || clustered;
    if (hot) {
      quiet_windows_[s] = 0;
      if (!uses_locking_[s]) {
        uses_locking_[s] = 1;
        ++reclassifications_;
        // Packets already queued on the old side complete there; new
        // arrivals take the new route (a live-reconfiguration transient).
        if (config_.trace != nullptr)
          config_.trace->instant(trace_ctl_track_, "promote to locking", sim_.now(), s);
      }
    } else if (uses_locking_[s]) {
      // Demote only after a sustained quiet spell (hysteresis): bursty
      // streams are quiet between bursts.
      if (++quiet_windows_[s] >= kAdaptDemoteWindows) {
        uses_locking_[s] = 0;
        quiet_windows_[s] = 0;
        ++reclassifications_;
        if (config_.trace != nullptr)
          config_.trace->instant(trace_ctl_track_, "demote to ips", sim_.now(), s);
      }
    }
    window_arrivals_[s] = 0;
    window_max_batch_[s] = 0;
    window_clustered_[s] = 0;
  }
  if (sim_.now() + interval <= end_time_)
    sim_.scheduleAfter(interval, [this] { adaptStreams(); });
}

RunMetrics ProtocolSim::run() {
  AFF_CHECK(!ran_);
  ran_ = true;
  end_time_ = config_.warmup_us + config_.measure_us;
  busy_procs_.set(0.0, 0.0);
  queue_len_.set(0.0, 0.0);
  for (unsigned p = 0; p < proc_queue_tw_.size(); ++p) {
    proc_queue_tw_[p].set(0.0, 0.0);
    proc_busy_tw_[p].set(0.0, 0.0);
  }

  if (config_.adaptive_hybrid) {
    AFF_CHECK(config_.policy.paradigm == Paradigm::kHybrid);
    window_arrivals_.assign(streams_.count(), 0);
    window_max_batch_.assign(streams_.count(), 0);
    quiet_windows_.assign(streams_.count(), 0);
    window_clustered_.assign(streams_.count(), 0);
    last_arrival_time_.assign(streams_.count(), -1.0);
    sim_.scheduleAfter(config_.adapt_interval_us, [this] { adaptStreams(); });
  }

  for (std::uint32_t s = 0; s < streams_.count(); ++s) {
    if (!ownsStream(s)) continue;  // another shard's chain (serial: owns all)
    scheduleArrivals(s);
  }
  sim_.schedule(config_.warmup_us, [this] {
    busy_procs_.resetAt(sim_.now());
    queue_len_.resetAt(sim_.now());
  });
  const double mid = config_.warmup_us + config_.measure_us * 0.5;
  sim_.schedule(mid, [this] { backlog_mid_ = backlogNow(); });

  sim_.runUntil(end_time_);

  // Conservation: every arrived packet is done, still in the system, or was
  // refused by the flow-table shedding layer (never silently lost).
  AFF_CHECK(arrived_ == completed_total_ + backlogNow() + flow_shed_);

  RunMetrics m;
  m.mean_delay_us = delay_.mean();
  m.p50_delay_us = delay_hist_.quantile(0.50);
  m.p95_delay_us = delay_hist_.quantile(0.95);
  m.p99_delay_us = delay_hist_.quantile(0.99);
  m.ci95_delay_us = delay_batches_.halfWidth(0.95);
  m.mean_service_us = service_.mean();
  m.mean_lock_wait_us = lock_wait_.mean();
  m.offered_rate_per_us = streams_.totalRatePerUs();
  m.throughput_per_us = static_cast<double>(completed_) / config_.measure_us;
  m.utilization = busy_procs_.average(end_time_) / config_.num_procs;
  m.mean_queue_len = queue_len_.average(end_time_);
  m.arrived = arrived_;
  m.completed = completed_;
  m.backlog_end = backlogNow();
  m.reclassifications = reclassifications_;
  m.steals = steals_;
  m.stolen_jobs = stolen_jobs_;
  m.steal_reload_us = steal_reload_us_;
  const net::NicDispatchStats wired_ns = nic_wired_.stats();
  const net::NicDispatchStats stack_ns = nic_stack_.stats();
  m.flow_migrations = wired_ns.migrations + stack_ns.migrations;
  m.tfn_feedback = wired_ns.tfn_feedback + stack_ns.tfn_feedback;
  m.tfn_deferred = wired_ns.tfn_deferred + stack_ns.tfn_deferred;
  m.tfn_applied = wired_ns.tfn_applied + stack_ns.tfn_applied;
  m.tfn_stale = wired_ns.tfn_stale + stack_ns.tfn_stale;
  if (flow_table_ != nullptr) {
    const auto fs = flow_table_->stats();
    m.flow_inserts = fs.inserts;
    m.flow_hits = fs.hits;
    m.flow_evictions = fs.evictions();
    m.flow_shed = flow_shed_;
    m.flow_occupancy = fs.occupancy;
    m.flow_capacity = fs.capacity;
  }
  // Saturated: the backlog kept growing through the second half of the
  // window (allowing for stochastic noise around a modest level).
  const std::uint64_t floor = 6ull * config_.num_procs;
  m.saturated = m.backlog_end > floor && backlog_mid_ > config_.num_procs &&
                2 * m.backlog_end > 3 * backlog_mid_;  // grew >= 1.5x since midpoint
  if (config_.per_stream_stats) {
    m.per_stream_mean_delay_us.reserve(per_stream_delay_.size());
    for (const auto& s : per_stream_delay_) m.per_stream_mean_delay_us.push_back(s.mean());
  }
  if (obs_on_) exportRunMetrics(m);
  return m;
}

void ProtocolSim::exportRunMetrics(const RunMetrics& m) {
  auto& reg = *config_.metrics;
  reg.counter("sim.run.count").inc();
  if (m.saturated) reg.counter("sim.run.saturated").inc();
  reg.meanStat("sim.run.mean_delay_us").add(m.mean_delay_us);
  reg.meanStat("sim.run.throughput_per_us").add(m.throughput_per_us);
  reg.meanStat("sim.run.utilization").add(m.utilization);
  reg.meanStat("sim.run.mean_queue_len").add(m.mean_queue_len);
  reg.meanStat("sim.kernel.events_executed").add(static_cast<double>(sim_.executedCount()));
  if (sim_.executedCount() > 0) {
    reg.meanStat("sim.kernel.entries_scanned_per_event")
        .add(static_cast<double>(sim_.entriesScanned()) /
             static_cast<double>(sim_.executedCount()));
  }
  reg.meanStat("sim.kernel.events_pending_end").add(static_cast<double>(sim_.pendingCount()));
  // The run's own accumulators, the ones RunMetrics is computed from.
  reg.counter("sim.packets.arrived").inc(m.arrived);
  reg.counter("sim.packets.completed").inc(m.completed);
  reg.mergeHistogram("sim.delay_us", delay_hist_);
  reg.meanStat("sim.service_us").merge(service_);
  reg.meanStat("sim.lock_wait_us").merge(lock_wait_);
  reg.meanStat("sim.affinity.l1_warm_fraction").merge(l1_warm_);
  reg.meanStat("sim.affinity.l2_warm_fraction").merge(l2_warm_);
  if (model_.reloadParams().dl3_us > 0.0) {
    reg.meanStat("sim.cache.rd.l3_warm_fraction").merge(l3_warm_);
  }
  if (model_.kind() == CacheModelKind::kReuse && model_.reuseModel() != nullptr) {
    // Reuse-distance model parameters (docs/OBSERVABILITY.md, sim.cache.rd.*):
    // static per-run gauges describing the profile the run used.
    const RdCacheModel& rd = *model_.reuseModel();
    reg.gauge("sim.cache.rd.proto_lines").set(rd.protoLinesL2());
    reg.gauge("sim.cache.rd.llc_share_lines").set(rd.llcShareLines());
    reg.gauge("sim.cache.rd.co_runners").set(static_cast<double>(rd.coRunners()));
  }
  if (config_.policy.locking == LockingPolicy::kStealAffinity) {
    reg.gauge("sim.cache.rd.steal_reload_us").set(m.steal_reload_us);
  }
  reg.counter("sim.sched.stream_mru.hit").inc(stream_mru_hit_);
  reg.counter("sim.sched.stream_mru.fallback").inc(stream_mru_fallback_);
  reg.counter("sim.sched.ips_mru.hit").inc(ips_mru_hit_);
  reg.counter("sim.sched.ips_mru.fallback").inc(ips_mru_fallback_);
  reg.counter("sim.sched.steal.count").inc(m.steals);
  reg.counter("sim.sched.steal.jobs").inc(m.stolen_jobs);
  reg.counter("sim.affinity.stream_migrations").inc(affinity_.streamMigrations());
  reg.counter("sim.affinity.stream_revisits").inc(affinity_.streamRevisits());
  reg.counter("sim.affinity.stack_migrations").inc(affinity_.stackMigrations());
  reg.counter("sim.affinity.stack_revisits").inc(affinity_.stackRevisits());
  reg.counter("sim.hybrid.reclassifications").inc(reclassifications_);
  reg.counter("sim.net.dispatch.pins").inc(nic_wired_.stats().pins + nic_stack_.stats().pins);
  reg.counter("sim.net.dispatch.migrations").inc(m.flow_migrations);
  if (config_.dispatch == net::NicDispatchMode::kTransportFriendly) {
    // TransportFriendly ledger (docs/OBSERVABILITY.md, sim.net.dispatch.tfn.*);
    // gated on the mode so every other configuration's export is unchanged.
    reg.counter("sim.net.dispatch.tfn.feedback").inc(m.tfn_feedback);
    reg.counter("sim.net.dispatch.tfn.deferred").inc(m.tfn_deferred);
    reg.counter("sim.net.dispatch.tfn.applied").inc(m.tfn_applied);
    reg.counter("sim.net.dispatch.tfn.stale").inc(m.tfn_stale);
  }
  if (flow_table_ != nullptr) {
    // Bounded flow table (docs/OBSERVABILITY.md, sim.flow.*).
    reg.counter("sim.flow.inserts").inc(m.flow_inserts);
    reg.counter("sim.flow.hits").inc(m.flow_hits);
    reg.counter("sim.flow.evicted").inc(m.flow_evictions);
    reg.counter("sim.flow.shed").inc(m.flow_shed);
    reg.meanStat("sim.flow.occupancy").add(static_cast<double>(m.flow_occupancy));
    reg.meanStat("sim.flow.capacity").add(static_cast<double>(m.flow_capacity));
  }
  for (unsigned p = 0; p < config_.num_procs; ++p) {
    const std::string base = "sim.proc." + std::to_string(p);
    reg.meanStat(base + ".queue_depth_avg").add(proc_queue_tw_[p].average(end_time_));
    reg.meanStat(base + ".queue_depth_peak").add(proc_queue_tw_[p].maxLevel());
    reg.meanStat(base + ".busy_frac").add(proc_busy_tw_[p].average(end_time_));
  }
}

}  // namespace affinity

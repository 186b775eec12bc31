// engine.hpp — the real-thread packet-processing engine.
//
// The simulation (src/core) is the source of the paper's numbers; the
// engine executes the *actual* protocol stack (src/proto) on real threads,
// demonstrating the parallelization paradigms as running code. One Engine
// class spans the design space; its shape is two values:
//
//  * the stack — one ProtocolStack shared under a mutex (Locking), or one
//    private stack per worker (IPS: no lock on the receive path);
//  * the queues — one shared MPMC queue (any packet on any worker), or one
//    queue per worker routed at submit by a NIC classifier or a software
//    DispatchPolicy: SPSC rings, or MPMC queues when work stealing is on.
//
// The named configurations LockingEngine, IpsEngine (below) and
// DispatchEngine (runtime/dispatch_engine.hpp) pick the shape.
//
// The engine is built to *degrade, not die* (docs/ROBUSTNESS.md):
// malformed frames become per-cause drop counters, overload follows a
// pluggable policy with an optional submit deadline, an optional watchdog
// detects killed/stalled workers (and, with private stacks, re-homes their
// work), and per-flow state lives in a bounded sharded FlowTable (src/flow)
// sized once at openPort — under state exhaustion the table evicts per
// policy and the kShedNewFlows overload policy sheds new-flow admissions.
// At stop() the conservation invariant holds exactly:
//
//   submitted == delivered + Σ dropped_by_reason + dropped_oldest
//              + Σ evicted_inflight
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stop_token>
#include <thread>
#include <vector>

#include "flow/flow_table.hpp"
#include "net/dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/stack.hpp"
#include "runtime/queues.hpp"
#include "runtime/worker_pool.hpp"
#include "stats/histogram.hpp"
#include "util/arena.hpp"
#include "util/mutex.hpp"

namespace affinity {

struct WorkItem;  // defined below; EngineOptions::delivered_observer needs the name

/// What submit() does when the target queue/ring is full.
enum class OverloadPolicy : std::uint8_t {
  kBlock,         ///< wait for room (bounded by submit_deadline when set)
  kRejectNewest,  ///< fail fast: reject the incoming frame
  kDropOldest,    ///< evict the oldest queued frame to admit the new one
                  ///< (MPMC queues only; an SPSC ring rejects the newest —
                  ///< its consumer seat belongs to the worker)
  kShedNewFlows,  ///< adaptive load shedding: when flow-table occupancy
                  ///< (or queue depth, where observable) crosses the
                  ///< high-water mark, reject admissions for flows not
                  ///< already in the table — established flows are never
                  ///< shed. Queue-full still rejects the newest frame.
};

const char* overloadPolicyName(OverloadPolicy p) noexcept;

/// Robustness and overload knobs of an Engine. The defaults
/// reproduce the pre-fault-tolerance behavior: block forever, no watchdog.
struct EngineOptions {
  std::size_t queue_capacity = 1024;  ///< shared queue / per-worker ring slots
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Longest submit() may wait under kBlock; 0 = unbounded.
  std::chrono::microseconds submit_deadline{0};
  /// Run a watchdog thread that detects dead/stalled workers (per-worker
  /// heartbeats) and counts them; with private stacks it also re-homes
  /// their streams.
  bool watchdog = false;
  std::chrono::milliseconds watchdog_interval{2};
  /// Heartbeat silence after which a live worker is declared stalled.
  std::chrono::milliseconds stall_timeout{100};
  /// NIC dispatch front-end: how submit() maps a stream to a worker queue
  /// (per-worker queues only — a shared queue has no placement). kDirect
  /// leaves placement to the DispatchPolicy (`stream % workers` for IPS).
  net::NicDispatchMode nic_mode = net::NicDispatchMode::kDirect;
  /// kTransportFriendly staleness window (consumptions at the current pin a
  /// parked repin proposal survives before it is dropped as stale).
  unsigned tfn_window = net::NicDispatcher::kDefaultTfnWindow;
  /// Affinity-aware work stealing (shared stack, per-worker queues — i.e.
  /// DispatchEngine): idle workers take a bounded batch from the head of the
  /// longest peer queue. Requires MPMC per-worker queues, so it is opt-in.
  bool steal = false;
  unsigned steal_batch = 4;  ///< max frames taken per steal
  /// Called after each frame that reaches a session, from the processing
  /// thread (or from stop()'s reconcile drain). Used by the ordering tests
  /// to observe per-stream delivery order; leave empty for no overhead.
  std::function<void(const WorkItem&)> delivered_observer;
  /// Bounded per-flow state (src/flow): budget, shard count, eviction
  /// policy, and shed water marks. The table is materialized at openPort —
  /// the memory budget is fixed before any traffic — and shedding is armed
  /// only under OverloadPolicy::kShedNewFlows.
  flow::FlowTableConfig flow;
};

/// An Engine's counters.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;             ///< aggregate: queue_full + stopped + shed
  std::uint64_t rejected_queue_full = 0;  ///< no room (or submit deadline hit)
  std::uint64_t rejected_stopped = 0;     ///< intake already closed
  std::uint64_t rejected_shed = 0;        ///< new flows shed under kShedNewFlows
  std::uint64_t dropped_oldest = 0;       ///< evicted under kDropOldest
  std::uint64_t processed = 0;  ///< frames run through a stack
  std::uint64_t delivered = 0;  ///< frames that reached a session
  std::uint64_t worker_failures = 0;  ///< workers declared failed by the watchdog
  std::uint64_t rehomed = 0;          ///< frames flushed from failed workers
  std::uint64_t steals = 0;           ///< steal events (batches taken)
  std::uint64_t stolen = 0;           ///< frames moved by stealing
  std::uint64_t nic_pins = 0;         ///< FDir/TFN: streams pinned
  std::uint64_t nic_migrations = 0;   ///< FDir/TFN: pin moves
  std::uint64_t nic_tfn_feedback = 0;  ///< TFN: consumer feedback accepted
  std::uint64_t nic_tfn_deferred = 0;  ///< TFN: repins parked behind in-flight
  std::uint64_t nic_tfn_applied = 0;   ///< TFN: parked repins applied on drain
  std::uint64_t nic_tfn_stale = 0;     ///< TFN: stale proposals/feedback dropped
  /// Frames dropped by the protocol stack, by typed cause (DropReason).
  std::array<std::uint64_t, kNumDropReasons> dropped_by_reason{};
  // Bounded flow-table ledger (zero everywhere when no table is attached).
  std::uint64_t flow_inserts = 0;    ///< flow entries created
  std::uint64_t flow_hits = 0;       ///< admissions to established flows
  std::uint64_t flow_occupancy = 0;  ///< live entries at snapshot time
  std::uint64_t flow_capacity = 0;   ///< fixed entry capacity
  std::uint64_t flow_shed_engaged = 0;  ///< occupancy latch engagements
  /// Entries evicted, by cause (flow::EvictReason).
  std::array<std::uint64_t, flow::kNumEvictReasons> evicted_by_reason{};
  /// Frames orphaned by evictions: submitted and queued, but their flow was
  /// evicted before they were processed. Pre-counted at eviction time;
  /// consumed (without processing) when they surface.
  std::uint64_t evicted_inflight = 0;
  std::uint64_t evicted_consumed = 0;  ///< orphaned frames actually surfaced so far
  std::vector<std::uint64_t> per_worker_processed;
  // End-to-end latency (submit to completed processing), µs. Zero when no
  // frame has completed.
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;

  /// Total stack drops across all causes.
  [[nodiscard]] std::uint64_t droppedByStack() const noexcept;

  /// Total flow evictions across all causes.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    std::uint64_t total = 0;
    for (const auto v : evicted_by_reason) total += v;
    return total;
  }

  /// The conservation invariant; exact once the engine has stopped. Every
  /// submitted frame is delivered, dropped by the stack for a named cause,
  /// evicted from a queue under kDropOldest, or orphaned by a flow eviction
  /// (evicted_inflight) — nothing vanishes without a counter.
  [[nodiscard]] bool conserved() const noexcept {
    return submitted == delivered + droppedByStack() + dropped_oldest + evicted_inflight;
  }
};

/// Writes an EngineStats snapshot into `reg` under `prefix` — e.g.
/// "chaos.ips.submitted", "chaos.ips.worker.3.processed",
/// "chaos.ips.dropped.ip-bad-checksum". Gauge semantics (absolute values
/// at export time), so repeated exports overwrite rather than double-count.
void exportEngineStats(const EngineStats& s, obs::MetricsRegistry& reg,
                       const std::string& prefix);

/// Writes the flow-table slice of an EngineStats snapshot into `reg` under
/// `prefix` — e.g. "chaos.ips.flow.inserts", "chaos.ips.flow.evicted.capacity".
/// Gauge semantics, like exportEngineStats.
void exportFlowStats(const EngineStats& s, obs::MetricsRegistry& reg,
                     const std::string& prefix);

/// Writes the process-wide FrameArena counters into `reg` under the
/// rt.arena.* domain (docs/OBSERVABILITY.md) — e.g. "rt.arena.allocs",
/// "rt.arena.cross_thread_returns". Gauge semantics, like exportEngineStats.
void exportArenaStats(obs::MetricsRegistry& reg, const std::string& prefix = "rt.arena");

/// A frame plus its routing hint. The frame lives in the submitting
/// thread's FrameArena (util/arena.hpp): constructing a WorkItem from a
/// std::vector copies the bytes into the arena once, and every queue hop
/// after that is a pointer move — zero global-allocator traffic on the
/// steady-state path (tests/arena_test.cpp pins this).
struct WorkItem {
  FrameBuf frame;
  std::uint32_t stream = 0;
  /// Stamped by submit(); used for end-to-end latency.
  std::chrono::steady_clock::time_point enqueue_tp{};
  /// Caller-stamped per-stream sequence number (the ordering tests use it
  /// to detect reordering at delivery; engines carry it, never read it).
  std::uint64_t seq = 0;
  /// Flow-table generation stamped at admission: a frame whose flow was
  /// evicted while it sat in a queue is recognized at process time by the
  /// generation mismatch (already accounted under evicted_inflight).
  std::uint64_t flow_gen = 0;
};

/// Per-worker latency recorder (owned by exactly one worker thread while
/// the engine runs; merged by stats() after workers quiesce).
class LatencyRecorder {
 public:
  /// An empty histogram with every recorder's bucket geometry (µs), so the
  /// per-worker histograms merge into one (Engine::stats()).
  static Histogram emptyHistogram() { return Histogram(0.05, 8, 32); }

  LatencyRecorder() : hist_(emptyHistogram()) {}

  void record(std::chrono::steady_clock::time_point enqueue_tp) {
    const auto now = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - enqueue_tp).count();
    hist_.add(us);
  }

  [[nodiscard]] const Histogram& histogram() const noexcept { return hist_; }

 private:
  Histogram hist_;
};

/// The engine's flow-admission front end: owns the bounded
/// FlowTable (src/flow), materialized at openPort so the memory budget is
/// fixed before any traffic. Admission stamps the WorkItem with the flow
/// generation; release at process/drop time detects frames orphaned by an
/// eviction. When no table is attached (openPort not called, or
/// flow.enabled = false) every call degenerates to the pre-table behavior.
class FlowFrontEnd {
 public:
  /// Builds the table once (idempotent). `shed_armed` wires the table's
  /// shedding layer to OverloadPolicy::kShedNewFlows.
  void materialize(flow::FlowTableConfig cfg, bool shed_armed) {
    if (table_ != nullptr || !cfg.enabled) return;
    cfg.shed_enabled = shed_armed;
    table_ = std::make_unique<flow::FlowTable>(cfg);
  }

  /// Admits `item`'s flow and stamps item.flow_gen. False means the
  /// shedding layer refused a new flow — the frame must be rejected before
  /// it touches any queue. `queue_depth`/`queue_capacity` feed the optional
  /// queue-depth pressure signal (pass 0/0 where depth is unobservable;
  /// that signal is timing-dependent and stays out of determinism configs).
  bool admit(WorkItem& item, std::size_t queue_depth = 0, std::size_t queue_capacity = 0) {
    if (table_ == nullptr) return true;
    bool pressure = false;
    if (queue_capacity > 0 && table_->config().shed_enabled) {
      const auto& c = table_->config();
      const auto mark = [&](double frac) {
        return static_cast<std::uint64_t>(frac * static_cast<double>(queue_capacity));
      };
      pressure = queue_latch_.update(queue_depth, mark(c.shed_high_water),
                                     mark(c.shed_low_water));
    }
    const flow::AdmitResult r = table_->admit(item.stream, pressure);
    if (r.status == flow::AdmitResult::Status::kShed) return false;
    item.flow_gen = r.gen;
    return true;
  }

  /// Releases one in-flight frame. True when the flow is still live (the
  /// caller processes or drop-counts the frame as before); false when the
  /// flow was evicted since admission — the frame was already accounted
  /// under evicted_inflight and must be consumed silently.
  bool release(const WorkItem& item) {
    if (table_ == nullptr) return true;
    if (table_->release(item.stream, item.flow_gen)) return true;
    consumed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Folds the table's ledger into an EngineStats snapshot.
  void mergeInto(EngineStats& s) const {
    if (table_ == nullptr) return;
    const flow::FlowTableStats f = table_->stats();
    s.flow_inserts = f.inserts;
    s.flow_hits = f.hits;
    s.flow_occupancy = f.occupancy;
    s.flow_capacity = f.capacity;
    s.flow_shed_engaged = f.shed_engaged;
    s.evicted_by_reason = f.evicted_by_reason;
    s.evicted_inflight = f.evicted_inflight;
    s.evicted_consumed = consumed_.load(std::memory_order_relaxed);
    s.rejected_shed = f.shed;
    s.rejected += f.shed;
  }

  [[nodiscard]] const flow::FlowTable* table() const noexcept { return table_.get(); }

 private:
  std::unique_ptr<flow::FlowTable> table_;
  flow::ShedLatch queue_latch_;
  std::atomic<std::uint64_t> consumed_{0};
};

/// Software placement behind per-worker queues: how submit() picks a worker
/// when no NIC classifier has (EngineOptions::nic_mode == kDirect).
enum class DispatchPolicy : std::uint8_t {
  kRoundRobin,  ///< no affinity (the FCFS baseline)
  kMruWorker,   ///< the most-recently-dispatched-to worker whose queue has room
  kStreamHash,  ///< stream % workers (the Wired-Streams analogue)
};

const char* dispatchPolicyName(DispatchPolicy p) noexcept;

/// The two axes of the paper's design space that fix an Engine's shape,
/// plus software placement.
struct EngineShape {
  /// IPS: one private ProtocolStack per worker, no lock on the receive
  /// path. Otherwise one stack shared under Engine::stack_mu_ (Locking).
  bool private_stacks = false;
  /// One queue per worker, routed at submit (an SPSC ring, or an MPMC queue
  /// when EngineOptions::steal lets idle workers pop peers). Otherwise one
  /// shared MPMC queue every worker pops — no placement control at all.
  bool per_worker_queues = false;
  DispatchPolicy policy = DispatchPolicy::kStreamHash;
  const char* name = "engine";  ///< trace tracks and the default metric prefix
};

/// The real-thread engine. Everything but the shape is shared: one submit
/// whose overload rules follow from the queue type (drop-oldest evicts the
/// head of any MPMC queue and degrades to reject-newest on an SPSC ring),
/// one worker loop, one per-frame path (Flow Director and transport-friendly
/// NIC feedback included), one watchdog, one stop() reconcile and one
/// stats() merge. The watchdog counts failed workers on every shape; where
/// streams have a home stack (private stacks) it also re-homes a failed
/// worker's streams to a survivor and flushes its ring there in order.
///
/// Construct one of the named configurations below: LockingEngine,
/// IpsEngine, or DispatchEngine (runtime/dispatch_engine.hpp).
class Engine {
 public:
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens a UDP port on every stack (call before start()).
  void openPort(std::uint16_t port, std::size_t session_queue = 1024);

  void start();

  /// Routes and enqueues a frame per the overload policy (kBlock waits,
  /// bounded by the submit deadline when set). False once stopped or
  /// rejected — stats() splits the causes.
  bool submit(WorkItem item);

  /// Closes the intake, drains in-flight work, joins workers (idempotent).
  /// Frames stranded by killed workers are reconciled inline so the
  /// conservation invariant holds exactly at return.
  void stop();

  /// Injects a worker crash / stall (see WorkerPool). Call while running.
  void injectWorkerKill(unsigned w) { pool_.injectKill(w); }
  void injectWorkerStall(unsigned w, std::chrono::milliseconds d) { pool_.injectStall(w, d); }

  [[nodiscard]] EngineStats stats() const;

 protected:
  Engine(unsigned workers, const EngineShape& shape, HostConfig host,
         const EngineOptions& options);
  /// Protected and non-virtual: engines are destroyed as the named
  /// configuration they were built as, never through an Engine pointer.
  ~Engine() { stop(); }

  static EngineOptions optionsWithCapacity(std::size_t capacity) {
    EngineOptions o;
    o.queue_capacity = capacity;
    return o;
  }

  // Accessors the named configurations expose where they apply.

  /// The worker a frame of `stream` would be queued at right now: the NIC
  /// classifier's queue, else the DispatchPolicy's choice (kRoundRobin
  /// advances its cursor), followed past workers the watchdog re-homed.
  [[nodiscard]] unsigned route(std::uint32_t stream);
  /// Forces the NIC flow table to re-pin `stream` to `queue` (FlowDirector:
  /// immediately; TransportFriendly: deferred until the old home drains;
  /// no-op otherwise).
  void repinStream(std::uint32_t stream, unsigned queue) { nic_.repin(stream, queue % workers_); }
  [[nodiscard]] DispatchPolicy policy() const noexcept { return shape_.policy; }
  /// Frames fully processed so far. Safe to poll while workers run —
  /// stats() is not, because it merges the owner-written per-worker arrays
  /// and is only coherent once the engine has quiesced (drained or stopped).
  [[nodiscard]] std::uint64_t processedCount() const noexcept;

 private:
  // Cache-line aligned: each worker writes its own counters, so a
  // neighbour's must not share the line.
  struct alignas(64) PerWorker {
    std::unique_ptr<ProtocolStack> stack;        ///< private stacks only
    std::unique_ptr<SpscRing<WorkItem>> ring;    ///< per-worker queues, steal off
    std::unique_ptr<MpmcQueue<WorkItem>> queue;  ///< per-worker queues, steal on
    // Failover lane (re-homing engines only): the SPSC ring's producer seat
    // belongs to the submitter and its consumer seat to the worker, so
    // re-homed frames from a dead peer arrive through this mutexed side
    // queue, polled via the flag (one relaxed load on the fast path).
    std::unique_ptr<MpmcQueue<WorkItem>> recovery;
    std::atomic<bool> recovery_pending{false};
    std::atomic<bool> dead{false};      ///< declared failed by a re-homing watchdog
    std::atomic<unsigned> redirect{0};  ///< failover target (self while alive)
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> delivered{0};
    std::array<std::uint64_t, kNumDropReasons> reasons{};  // owner-written
    LatencyRecorder latency;                               // owner-written
    std::uint32_t trace_track = 0;
  };

  /// The MPMC queue worker `w` pops (the shared queue, or its own under
  /// steal); null when it pops an SPSC ring.
  [[nodiscard]] MpmcQueue<WorkItem>* mpmcOf(unsigned w) const noexcept;
  bool tryPush(unsigned w, WorkItem& item);
  bool tryPop(unsigned w, WorkItem& out);
  [[nodiscard]] bool queueEmpty(unsigned w) const;
  void workerLoop(unsigned w, std::stop_token st);
  /// `live` is false for stop()'s reconcile: a drain on behalf of a worker
  /// that no longer consumes, whose placement feedback must not move a
  /// TransportFriendly pin.
  void runFrame(unsigned w, const WorkItem& item, bool live = true);
  ReceiveContext receive(PerWorker& pw, const WorkItem& item);
  bool trySteal(unsigned thief);
  void evictOldest(MpmcQueue<WorkItem>& queue);
  bool reject(const WorkItem& item, std::atomic<std::uint64_t>& cause);
  [[nodiscard]] bool anyWorkerAlive() const noexcept;
  /// True while some consumer can still pop queue `w` (a blocked submit to
  /// an undrainable queue would wedge forever).
  [[nodiscard]] bool queueDrainable(unsigned w, bool wired) const noexcept;
  void watchdogLoop(std::stop_token st);
  void declareFailed(unsigned w, bool exited);
  void flushFailed(unsigned w);

  const unsigned workers_;
  const EngineShape shape_;
  const EngineOptions options_;
  /// Private stacks under a watchdog: failed workers' streams re-home.
  const bool rehome_;
  const bool tfn_;  ///< options_.nic_mode == kTransportFriendly
  net::NicDispatcher nic_;
  // The shared stack (absent with private stacks): every receiveFrame holds
  // stack_mu_ — that serialization is the Locking paradigm under study, not
  // a bottleneck to engineer away. Outermost in the lock hierarchy: the
  // delivered observer (which may take OrderingChecker::mu_) and stack-layer
  // metrics/trace run under it, and NIC pin state is its own inner domain.
  // The declared order is enforced by afflint's lock-order rule and, in
  // AFF_LOCKDEP builds, by util/lockdep.hpp.
  Mutex stack_mu_{"Engine::stack_mu_"}
      AFF_ACQUIRED_BEFORE(OrderingChecker::mu_, NicDispatcher::mu_,
                          MetricsRegistry::mu_, TraceSession::mu_,
                          FlowTable::Shard::mu);
  std::optional<ProtocolStack> stack_ AFF_GUARDED_BY(stack_mu_);
  std::unique_ptr<MpmcQueue<WorkItem>> shared_queue_;  ///< absent with per-worker queues
  std::vector<PerWorker> per_worker_;
  FlowFrontEnd flow_;
  WorkerPool pool_;
  std::jthread watchdog_;
  std::atomic<bool> intake_open_{true};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_stopped_{0};
  std::atomic<std::uint64_t> dropped_oldest_{0};
  std::atomic<std::uint64_t> worker_failures_{0};
  std::atomic<std::uint64_t> rehomed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> stolen_{0};
  // Software placement memory (the one submitter thread of a kRoundRobin /
  // kMruWorker engine only).
  unsigned rr_next_ = 0;   ///< round-robin cursor
  unsigned mru_last_ = 0;  ///< most recently dispatched-to worker
  // Tracing (captured from TraceSession::active() at start(); spans carry
  // steady-clock session time). Null when tracing is off.
  obs::TraceSession* trace_ = nullptr;
  std::uint32_t watchdog_track_ = 0;
  bool started_ = false;
};

/// Shared stack, shared queue: the Locking paradigm. Any frame runs on any
/// worker; workers wait on the queue with a timed pop.
class LockingEngine final : public Engine {
 public:
  LockingEngine(unsigned workers, HostConfig host, std::size_t queue_capacity = 1024)
      : LockingEngine(workers, host, optionsWithCapacity(queue_capacity)) {}
  LockingEngine(unsigned workers, HostConfig host, const EngineOptions& options)
      : Engine(workers, EngineShape{false, false, DispatchPolicy::kStreamHash, "locking"}, host,
               options) {}

  using Engine::processedCount;
};

/// Private stacks, per-worker SPSC rings routed by stream: the IPS
/// paradigm — no lock on the receive path, maximal affinity, per-stream
/// serialization. Under a watchdog a dead worker's streams are re-homed to
/// a survivor and its ring is flushed there in order.
class IpsEngine final : public Engine {
 public:
  IpsEngine(unsigned workers, HostConfig host, std::size_t ring_capacity = 1024)
      : IpsEngine(workers, host, optionsWithCapacity(ring_capacity)) {}
  IpsEngine(unsigned workers, HostConfig host, const EngineOptions& options)
      : Engine(workers, EngineShape{true, true, DispatchPolicy::kStreamHash, "ips"}, host,
               options) {}

  /// Home worker of a stream — the NIC dispatch front-end's queue choice
  /// (kDirect: `stream % workers`; kRss: Toeplitz indirection; kFDir:
  /// last-seen pin), following failover redirects past workers the
  /// watchdog has declared dead.
  [[nodiscard]] unsigned workerOf(std::uint32_t stream) { return route(stream); }
};

}  // namespace affinity

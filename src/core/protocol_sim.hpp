// protocol_sim.hpp — the paper's multiprocessor protocol-processing
// simulation model (§3.1), with analytic per-packet service times (§3.2).
//
// N processors serve packets from S streams. A packet executes on exactly
// one processor in one thread (message-level parallelism). Its service time
// comes from ExecTimeModel: a warm base time plus reload transients for the
// footprint components (code / shared data / stream state) scaled by how
// long ago — and where — each component last executed (AffinityState).
// Whenever a processor is not executing protocol code, the general
// non-protocol workload runs on it and displaces the protocol footprint at
// the SST-modelled rate; this is captured by the component ages.
//
// Under Locking every packet additionally pays the lock acquisition
// overhead and serializes through a short critical section on the shared
// stack (modelled as a FIFO resource). Under IPS a stack processes its
// packets serially (one schedulable context per stack) but needs no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cache/exec_time.hpp"
#include "core/metrics.hpp"
#include "flow/flow_table.hpp"
#include "net/dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/affinity_state.hpp"
#include "sched/policy.hpp"
#include "sim/simulator.hpp"
#include "stats/batch_means.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "stats/time_weighted.hpp"
#include "util/rng.hpp"
#include "workload/stream_set.hpp"

namespace affinity {

/// Observation hook for tests and detailed traces: called at every service
/// start and completion. Implementations must not mutate the simulation.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// `stack` is AffinityState::kNoStack for Locking-paradigm packets.
  /// `arrival_us` is the packet's arrival time: per-stream service starts
  /// with nondecreasing arrival_us iff the run preserved stream order.
  virtual void onServiceStart(unsigned proc, std::uint32_t stream, std::uint32_t stack,
                              double arrival_us, double now_us, double service_us) = 0;
  virtual void onServiceEnd(unsigned proc, std::uint32_t stream, std::uint32_t stack,
                            double now_us) = 0;
};

/// Configuration of one simulation run.
struct SimConfig {
  unsigned num_procs = 8;
  PolicyConfig policy;
  /// Per-packet lock acquisition/release overhead under Locking (µs): the
  /// parallelized x-kernel receive path takes several locks per packet
  /// (driver queue, IP demux map, UDP demux map, socket buffer), and
  /// software synchronization on RISC shared-memory machines is expensive
  /// (paper §1, citing Bjorkman & Gunningberg and Nahum et al.).
  double lock_overhead_us = 20.0;
  /// Serialized critical-section length on the shared stack under Locking
  /// (the demux-map lookups packets cannot overlap).
  double critical_section_us = 8.0;
  /// V: fixed per-packet overhead that gains nothing from affinity
  /// (data-touching work on uncached packet data; paper Figs. 10–11).
  double fixed_overhead_us = 0.0;
  /// Memory-bus contention (the Challenge's POWERpath-2 is a shared bus):
  /// fraction of a packet's L2-reload time that occupies the bus
  /// exclusively. 0 disables the model; ~0.35 is typical (per-miss bus
  /// occupancy vs total miss latency). The bus is modeled as a FIFO
  /// resource acquired for that long at service start — concurrent cold
  /// packets on different processors then delay each other, which is what
  /// caps multiprocessor scalability for cache-cold workloads.
  double bus_occupancy_fraction = 0.0;
  double warmup_us = 200'000.0;     ///< discarded transient
  double measure_us = 2'000'000.0;  ///< measurement window
  std::uint64_t seed = 1;
  bool per_stream_stats = false;
  /// Sharded parallel execution (docs/PARALLEL_SIM.md): number of real
  /// threads to shard the simulated processors across; 0/1 = serial. Honored
  /// by runOnce() via runParallel(); configurations outside the
  /// exactly-decomposable family silently run serially — the results are
  /// bit-identical to the serial run either way (that is the contract,
  /// guarded by GoldenSeed.ParallelMatchesSerial).
  unsigned parallel_procs = 0;
  /// Optional observation hook (not owned; may be nullptr).
  SimObserver* observer = nullptr;

  // --- observability (docs/OBSERVABILITY.md) -------------------------------
  /// Optional metrics registry (not owned). The run publishes its own
  /// finished accumulators into it once, after the run, so one registry may
  /// be shared by parallel sweep points — the statistics then aggregate
  /// across every point that ran. Purely observational: enabling it changes
  /// no simulation result (guarded by determinism_test).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional trace session (not owned): per-processor service spans and
  /// control instants in *virtual* time. Give each concurrently-running
  /// sim its own session — virtual timelines of different runs must not
  /// interleave. Also purely observational.
  obs::TraceSession* trace = nullptr;

  // --- adaptive hybrid (paradigm == kHybrid) -------------------------------
  // Instead of a fixed hybrid_locking_streams list, reclassify streams
  // periodically from their observed arrival behavior: streams whose
  // windowed rate or burst size exceeds the thresholds (constants in
  // protocol_sim.cpp) are routed through the Locking stack (multi-processor
  // burst absorption); the rest keep the lockless IPS fast path. This
  // automates the TR's hybrid proposal.
  bool adaptive_hybrid = false;
  double adapt_interval_us = 50'000.0;

  // --- NIC dispatch front-end + work stealing ------------------------------
  /// Receive-side classifier ahead of the scheduler: kDirect reproduces the
  /// historical `stream % queues` map bit-for-bit (the default everywhere);
  /// kRss routes by Toeplitz hash; kFlowDirector pins streams to their
  /// last-used queue and migrates the pin when a steal re-homes a stream —
  /// Wu et al.'s reordering pathology (arXiv:1106.0443), reproduced
  /// deterministically here. kTransportFriendly is the companion paper's
  /// fix (arXiv:1106.0445): the pin moves only on consumer feedback, and
  /// only after the old home's in-flight prefix for the stream has drained
  /// — completions drive the move, and the deliberate repins that do occur
  /// cold-reset the stream's affinity footprint (the migration transient).
  net::NicDispatchMode dispatch = net::NicDispatchMode::kDirect;
  /// kTransportFriendly staleness window: a deferred repin proposal that is
  /// outlived by this many completions at the current pin is dropped.
  unsigned tfn_window = net::NicDispatcher::kDefaultTfnWindow;
  /// Work stealing (policy.locking == kStealAffinity): at most this many
  /// jobs move per steal (head-of-queue prefix, order preserved in flight).
  unsigned steal_batch = 4;
  /// Victims with fewer queued jobs than this are left alone: a singleton
  /// job is usually cheaper served warm at its home than migrated cold, so
  /// stealing engages only once a backlog (a burst) builds.
  unsigned steal_min_queue = 2;
  /// Flat cost of the steal operation itself (queue transfer, CAS traffic),
  /// charged to the first stolen job on top of the cache model's
  /// cold-reload transients for the migrated footprint.
  double steal_penalty_us = 5.0;

  // --- bounded flow state (docs/ROBUSTNESS.md) -----------------------------
  /// Per-flow state table: bounded replacement for the implicit "one state
  /// record per stream forever" assumption. Admission is charged on every
  /// arrival; an eviction cold-resets the victim stream's affinity state
  /// (the performance cost of losing its footprint) and, when shedding is
  /// armed (flow.shed_enabled), new-flow arrivals can be refused outright
  /// under occupancy pressure — those packets extend the conservation
  /// equation: arrived == completed + backlog + flow_shed. The default
  /// budget is sized to never evict at paper-scale stream counts, so every
  /// golden figure is unchanged with the table on.
  flow::FlowTableConfig flow;

  /// Effective stack count under IPS/Hybrid (ips_stacks or one per proc).
  [[nodiscard]] unsigned effectiveStacks() const noexcept {
    return policy.ips_stacks != 0 ? policy.ips_stacks : num_procs;
  }
};

/// One simulation run. Construct, then run() exactly once.
class ProtocolSim {
 public:
  /// `streams` is cloned; the model is copied.
  ProtocolSim(SimConfig config, const ExecTimeModel& model, const StreamSet& streams);

  /// Executes the run and returns steady-state metrics.
  RunMetrics run();

 private:
  // Sharded parallel execution (core/parallel_sim.{hpp,cpp}) constructs
  // one ProtocolSim per shard, restricts each to the streams whose wired
  // processor it owns, and replays the shards' statistics commit logs into
  // fresh accumulators in serial order. docs/PARALLEL_SIM.md carries the
  // determinism argument; nothing else may touch the shard machinery.
  friend class ParallelProtocolSim;

  /// One statistics-mutating operation, logged (shard mode only) at the
  /// virtual time it executed so the coordinator can replay the serial
  /// update order. Levels (not deltas) are logged for the time-weighted
  /// signals: the merged global level is then the sum of the latest
  /// per-shard levels, independent of same-timestamp interleaving.
  struct ShardOp {
    enum class Kind : std::uint8_t {
      kQueueLen,    ///< a = this shard's queued-packet count after the change
      kBusyLevel,   ///< a = this shard's busy-processor level after the change
      kCompletion,  ///< a = delay, b = exec time, c = lock/bus wait (measured)
    };
    Kind kind;
    double t;
    double a;
    double b;
    double c;
  };

  /// Restricts this instance to shard `shard` of `num_shards` and turns on
  /// commit logging. Call before run(); only configurations that
  /// pass parallelEligible() (core/parallel_sim.hpp) decompose exactly.
  void shardForParallel(unsigned shard, unsigned num_shards);
  [[nodiscard]] bool ownsStream(std::uint32_t stream) const noexcept {
    return !shard_mode_ || owned_stream_[stream] != 0;
  }
  /// busy_procs_ adjustment, logged in shard mode.
  void noteBusyLevel(double now, double delta) noexcept;

  struct Job {
    std::uint32_t stream;
    double arrival_us;
    /// Route assigned at arrival and stable for the job's lifetime: the
    /// wired processor queue (Locking wired/steal) or the IPS stack. Kept
    /// on the job because FlowDirector pins can move while it waits.
    std::uint32_t queue = 0;
    /// Set when the job reached its queue by a steal (kStealAffinity) —
    /// batch followers start later with no extra_us, so the flag, not the
    /// penalty argument, drives the migrated-footprint cost accounting
    /// (RunMetrics::steal_reload_us, bounded by cache/steal_bound.hpp).
    bool stolen = false;
  };

  /// Wired-family Locking policies route through per-processor queues.
  [[nodiscard]] bool wiredLocking() const noexcept {
    return config_.policy.locking == LockingPolicy::kWiredStreams ||
           config_.policy.locking == LockingPolicy::kStealAffinity;
  }

  // --- paradigm helpers ---
  [[nodiscard]] bool usesLocking(std::uint32_t stream) const noexcept;

  // --- dispatch ---
  void arrivePacket(std::uint32_t stream);
  /// `extra_us` is added to the execution time (the steal penalty).
  void startService(unsigned proc, const Job& job, double extra_us = 0.0);
  /// Completes the job in service on `proc` (its in_service_ record).
  void onComplete(unsigned proc);
  void tryDispatchStack(std::uint32_t stack);
  void feedProcessor(unsigned proc);
  /// kStealAffinity: `thief` is idle with an empty wired queue; migrate a
  /// bounded batch from the best victim. Returns true if a job started.
  bool trySteal(unsigned thief);

  /// Chooses an idle processor per the Locking policy; -1 if none idle.
  [[nodiscard]] int chooseIdleForLocking(std::uint32_t stream);
  /// Chooses an idle processor for a runnable IPS stack; -1 if none usable.
  [[nodiscard]] int chooseIdleForStack(std::uint32_t stack);
  [[nodiscard]] int mruIdleProc() const noexcept;
  [[nodiscard]] int randomIdleProc();

  [[nodiscard]] bool inMeasureWindow() const noexcept {
    return sim_.now() >= config_.warmup_us;
  }
  [[nodiscard]] std::uint64_t backlogNow() const noexcept;
  void recordQueueChange() noexcept;

  void scheduleArrivals(std::uint32_t stream);
  void markStackRunnable(std::uint32_t stack);
  bool takeFromRunnable(std::uint32_t stack);
  void adaptStreams();

  // --- observability (no-ops unless config_.metrics / config_.trace) ------
  void initObservability();
  /// Queue depth attributable to processor `proc` changed by `delta`
  /// (wired Locking queue, or an IPS stack whose wired home is `proc`).
  void noteProcQueue(unsigned proc, int delta) noexcept;
  /// Publishes the run's accumulators into config_.metrics.
  void exportRunMetrics(const RunMetrics& m);

  SimConfig config_;
  ExecTimeModel model_;
  StreamSet streams_;
  Simulator sim_;
  AffinityState affinity_;
  // NIC front-end: one classifier per queue space (processor queues for the
  // Locking wired family, stack queues for IPS). Under kDirect both are
  // bit-identical to the historical modulo maps.
  net::NicDispatcher nic_wired_;
  net::NicDispatcher nic_stack_;
  std::uint64_t steals_ = 0;
  std::uint64_t stolen_jobs_ = 0;
  /// Measured reload cost of stolen jobs inside the window (µs): their full
  /// per-level reload transients plus the flat steal penalty — an upper
  /// bound on the migration's *extra* misses, gated against the Gu et al.
  /// steal-cache-complexity envelope in tests/steal_bound_test.cpp.
  double steal_reload_us_ = 0.0;
  // Bounded flow state (null when config_.flow.enabled is false). Single
  // writer (the event loop), so admissions are deterministic; in shard mode
  // each shard's table sees only its owned streams, which decomposes
  // exactly when no eviction or shedding can occur (parallel_sim gates).
  std::unique_ptr<flow::FlowTable> flow_table_;
  std::uint64_t flow_shed_ = 0;  ///< arrivals refused by the shedding layer
  Rng dispatch_rng_;
  std::vector<Rng> stream_rngs_;
  std::vector<std::uint8_t> uses_locking_;  ///< per stream (paradigm/hybrid)
  double end_time_ = 0.0;

  // Adaptive-hybrid window statistics (per stream).
  std::vector<std::uint64_t> window_arrivals_;
  std::vector<std::uint32_t> window_max_batch_;
  std::vector<std::uint32_t> quiet_windows_;
  std::vector<std::uint64_t> window_clustered_;
  std::vector<double> last_arrival_time_;
  std::uint64_t reclassifications_ = 0;

  // Processor state.
  std::vector<std::uint8_t> proc_idle_;
  unsigned idle_count_ = 0;
  /// The job each busy processor is serving, with its stall and execution
  /// time. A processor serves one job at a time, so the completion event
  /// carries only the processor id and finds the rest here.
  struct InService {
    Job job;
    double lock_wait = 0.0;
    double exec = 0.0;
  };
  std::vector<InService> in_service_;

  // Locking queues.
  std::deque<Job> global_queue_;                  // FCFS / MRU / StreamMRU
  std::vector<std::deque<Job>> wired_queues_;     // WiredStreams (per proc)

  // IPS state.
  std::vector<std::deque<Job>> stack_queues_;
  std::vector<std::uint8_t> stack_busy_;
  std::vector<std::uint8_t> stack_waiting_;       ///< in runnable_stacks_
  std::deque<std::uint32_t> runnable_stacks_;  // FIFO of stacks awaiting a proc
  std::vector<std::vector<std::uint32_t>> stacks_by_proc_;  // wired placement

  // Shared-stack lock (Locking): time it next becomes free.
  double lock_free_at_ = 0.0;
  // Memory bus (when modeled): time it next becomes free.
  double bus_free_at_ = 0.0;
  std::uint64_t queued_count_ = 0;

  // Statistics.
  OnlineStats delay_;
  OnlineStats service_;
  OnlineStats lock_wait_;
  BatchMeans delay_batches_{500};
  Histogram delay_hist_{0.1, 8, 32};
  TimeWeighted busy_procs_;
  TimeWeighted queue_len_;
  std::uint64_t arrived_ = 0;
  std::uint64_t completed_ = 0;        ///< completions inside the window
  std::uint64_t completed_total_ = 0;  ///< all completions (conservation)
  std::uint64_t backlog_mid_ = 0;
  std::vector<OnlineStats> per_stream_delay_;
  bool ran_ = false;

  // Sharded-parallel shard state (inert in serial runs).
  bool shard_mode_ = false;
  std::vector<std::uint8_t> owned_stream_;  ///< stream -> owned by this shard
  std::vector<ShardOp> shard_ops_;          ///< commit log, execution order

  // Observability-only accumulators, written only when obs_on_ (a metrics
  // registry is attached) and published by exportRunMetrics.
  bool obs_on_ = false;
  OnlineStats l1_warm_;  ///< per-packet warm fraction of the L1 reload
  OnlineStats l2_warm_;
  OnlineStats l3_warm_;  ///< shared-LLC topologies only (ΔL3 > 0)
  std::uint64_t stream_mru_hit_ = 0;
  std::uint64_t stream_mru_fallback_ = 0;
  std::uint64_t ips_mru_hit_ = 0;
  std::uint64_t ips_mru_fallback_ = 0;
  std::vector<TimeWeighted> proc_queue_tw_;
  std::vector<TimeWeighted> proc_busy_tw_;
  // Trace tracks (one per processor + one control track).
  std::vector<std::uint32_t> trace_tracks_;
  std::uint32_t trace_ctl_track_ = 0;
};

}  // namespace affinity

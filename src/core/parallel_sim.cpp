#include "core/parallel_sim.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "analytic/lookahead.hpp"
#include "obs/metrics.hpp"
#include "stats/batch_means.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "stats/time_weighted.hpp"
#include "util/check.hpp"

namespace affinity {

bool parallelEligible(const SimConfig& config, const char** reason) {
  const auto fail = [&](const char* why) {
    if (reason != nullptr) *reason = why;
    return false;
  };
  if (config.policy.paradigm != Paradigm::kIps) return fail("paradigm is not ips");
  if (config.policy.ips != IpsPolicy::kWired)
    return fail("non-wired IPS placement reads global idle state");
  if (config.dispatch == net::NicDispatchMode::kFlowDirector)
    return fail("flow-director pins are shared mutable state");
  if (config.dispatch == net::NicDispatchMode::kTransportFriendly)
    return fail("transport-friendly feedback pins are shared mutable state");
  if (config.adaptive_hybrid) return fail("adaptive hybrid reclassifies globally");
  if (config.bus_occupancy_fraction > 0.0) return fail("shared memory bus couples shards");
  if (config.observer != nullptr || config.metrics != nullptr || config.trace != nullptr)
    return fail("observation hooks see the global event order");
  if (config.flow.enabled && config.flow.shed_enabled)
    return fail("flow shedding reads global table occupancy");
  if (reason != nullptr) *reason = nullptr;
  return true;
}

RunMetrics runParallel(const SimConfig& config, const ExecTimeModel& model,
                       const StreamSet& streams, ParallelRunInfo* info) {
  return ParallelProtocolSim::run(config, model, streams, info);
}

RunMetrics ParallelProtocolSim::run(const SimConfig& config, const ExecTimeModel& model,
                                    const StreamSet& streams, ParallelRunInfo* info) {
  ParallelRunInfo local;
  ParallelRunInfo& out = info != nullptr ? *info : local;
  out = ParallelRunInfo{};

  const char* reason = nullptr;
  const unsigned shards_wanted = std::min(config.parallel_procs, config.num_procs);
  if (shards_wanted <= 1 || !parallelEligible(config, &reason)) {
    out.fallback_reason = shards_wanted <= 1 ? "fewer than two shards" : reason;
    ProtocolSim serial(config, model, streams);
    return serial.run();
  }
  if (model.reloadParams().dl3_us > 0.0) {
    // A shared-LLC term reads each footprint's age since its last touch on
    // *any* processor, which couples the shards; parallelEligible() sees
    // only the SimConfig, so the model is checked here.
    out.fallback_reason = "shared LLC couples processors through any-processor ages";
    ProtocolSim serial(config, model, streams);
    return serial.run();
  }
  if (config.flow.enabled) {
    // Each shard's flow table sees only its owned streams, which decomposes
    // exactly only when the serial run could not have evicted either — a
    // table smaller than the stream universe is guaranteed to evict, and
    // eviction decisions depend on global admission order.
    const flow::FlowTable probe(config.flow);
    if (probe.capacity() < streams.count()) {
      out.fallback_reason = "flow table smaller than stream universe";
      ProtocolSim serial(config, model, streams);
      return serial.run();
    }
  }
  const unsigned num_shards = shards_wanted;

  // Epoch length: many lookaheads per barrier. Correctness does not depend
  // on the choice — eligible shards share no simulation state at all — it
  // only amortizes barrier overhead while keeping the protocol shaped like
  // a classic conservative PDES loop (docs/PARALLEL_SIM.md).
  const double lookahead = minServiceTimeUs(model, config.fixed_overhead_us);
  out.lookahead_us = lookahead;
  const double epoch_us = std::max(lookahead, 1.0) * 1024.0;
  const double end_time = config.warmup_us + config.measure_us;

  std::vector<std::unique_ptr<ProtocolSim>> shard;
  shard.reserve(num_shards);
  for (unsigned i = 0; i < num_shards; ++i) {
    shard.push_back(std::make_unique<ProtocolSim>(config, model, streams));
    shard.back()->shardForParallel(i, num_shards);
  }

  std::vector<std::exception_ptr> errors(num_shards);
  std::uint64_t epochs = 0;
  {
    std::barrier sync(static_cast<std::ptrdiff_t>(num_shards));
    const auto worker = [&](unsigned i) {
      try {
        shard[i]->beginRun();
        double t = 0.0;
        while (t < end_time) {
          t = std::min(t + epoch_us, end_time);
          shard[i]->advanceTo(t);
          sync.arrive_and_wait();
          if (i == 0) ++epochs;
        }
      } catch (...) {
        errors[i] = std::current_exception();
        sync.arrive_and_drop();  // release peers; later phases expect one fewer
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(num_shards - 1);
    for (unsigned i = 1; i < num_shards; ++i) pool.emplace_back(worker, i);
    worker(0);
    for (auto& th : pool) th.join();
  }
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::vector<RunMetrics> sm;
  sm.reserve(num_shards);
  for (auto& s : shard) sm.push_back(s->finishRun());  // per-shard conservation

  {
    // Residual flow-table hazard: windows can overflow even below capacity
    // (open addressing). A shard that evicted has cold-reset a stream the
    // serial run may not have — not recoverable from the logs, so rerun.
    std::uint64_t evictions = 0;
    for (const auto& r : sm) evictions += r.flow_evictions;
    if (evictions > 0) {
      out.replay_fallback = true;
      out.fallback_reason = "flow eviction in shard mode";
      ProtocolSim serial(config, model, streams);
      return serial.run();
    }
  }

  // --- replay the merged commit logs in virtual-time order ----------------
  // Shard logs are individually time-sorted (operations log at execution
  // time); a k-way merge on (t, shard) reconstructs the serial update order
  // up to permutations of same-timestamp cross-shard operations, all of
  // which commute bitwise — except two measured completions, detected below.
  using Op = ProtocolSim::ShardOp;
  OnlineStats delay, service, lock_wait;
  BatchMeans delay_batches{500};
  TimeWeighted busy, queue;
  busy.set(0.0, 0.0);
  queue.set(0.0, 0.0);
  std::vector<double> shard_busy(num_shards, 0.0);
  std::vector<double> shard_queue(num_shards, 0.0);
  std::vector<std::size_t> pos(num_shards, 0);
  double busy_total = 0.0;
  double queue_total = 0.0;
  bool reset_done = false;
  double last_completion_t = -1.0;
  unsigned last_completion_shard = 0;
  bool tie = false;
  for (;;) {
    int next = -1;
    double best_t = 0.0;
    for (unsigned i = 0; i < num_shards; ++i) {
      if (pos[i] >= shard[i]->shard_ops_.size()) continue;
      const double t = shard[i]->shard_ops_[pos[i]].t;
      if (next < 0 || t < best_t) {
        next = static_cast<int>(i);
        best_t = t;
      }
    }
    if (next < 0) break;
    const auto i = static_cast<unsigned>(next);
    const Op& op = shard[i]->shard_ops_[pos[i]++];
    if (!reset_done && op.t >= config.warmup_us) {
      // The serial warmup-reset event runs before any same-time dynamic
      // event (smaller sequence number), and reordering it against
      // same-time level sets is bitwise neutral (area contributions at the
      // reset instant are discarded or zero either way).
      busy.resetAt(config.warmup_us);
      queue.resetAt(config.warmup_us);
      reset_done = true;
    }
    switch (op.kind) {
      case Op::Kind::kQueueLen:
        queue_total += op.a - shard_queue[i];  // small exact integers
        shard_queue[i] = op.a;
        queue.set(op.t, queue_total);
        break;
      case Op::Kind::kBusyLevel:
        busy_total += op.a - shard_busy[i];
        shard_busy[i] = op.a;
        busy.set(op.t, busy_total);
        break;
      case Op::Kind::kCompletion:
        if (op.t == last_completion_t && i != last_completion_shard) tie = true;
        last_completion_t = op.t;
        last_completion_shard = i;
        delay.add(op.a);
        delay_batches.add(op.a);
        service.add(op.b);
        lock_wait.add(op.c);
        break;
    }
  }
  if (!reset_done) {
    busy.resetAt(config.warmup_us);
    queue.resetAt(config.warmup_us);
  }

  if (tie) {
    // Two shards completed measured packets at bitwise-equal virtual times:
    // the serial interleaving of their order-sensitive accumulator updates
    // is not recoverable from the logs, so buy exactness the honest way.
    // Deterministic: the tie is a pure function of config + seed, so the
    // same inputs always take this path.
    out.replay_fallback = true;
    out.fallback_reason = "cross-shard completion-time tie";
    ProtocolSim serial(config, model, streams);
    return serial.run();
  }

  out.parallel = true;
  out.shards = num_shards;
  out.epochs = epochs;

  Histogram hist{0.1, 8, 32};
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t backlog_end = 0;
  std::uint64_t backlog_mid = 0;
  std::uint64_t steals = 0;
  std::uint64_t stolen = 0;
  std::uint64_t migrations = 0;
  std::uint64_t reclass = 0;
  std::uint64_t flow_inserts = 0;
  std::uint64_t flow_hits = 0;
  std::uint64_t flow_occupancy = 0;
  for (unsigned i = 0; i < num_shards; ++i) {
    hist.merge(shard[i]->delay_hist_);  // bin counts sum exactly
    arrived += sm[i].arrived;
    completed += sm[i].completed;
    backlog_end += sm[i].backlog_end;
    backlog_mid += shard[i]->backlog_mid_;
    steals += sm[i].steals;
    stolen += sm[i].stolen_jobs;
    migrations += sm[i].flow_migrations;
    reclass += sm[i].reclassifications;
    // Streams partition across shards, so per-stream table state sums
    // exactly; capacity is a config constant, not a sum.
    flow_inserts += sm[i].flow_inserts;
    flow_hits += sm[i].flow_hits;
    flow_occupancy += sm[i].flow_occupancy;
  }

  RunMetrics m;
  m.mean_delay_us = delay.mean();
  m.p50_delay_us = hist.quantile(0.50);
  m.p95_delay_us = hist.quantile(0.95);
  m.p99_delay_us = hist.quantile(0.99);
  m.ci95_delay_us = delay_batches.halfWidth(0.95);
  m.mean_service_us = service.mean();
  m.mean_lock_wait_us = lock_wait.mean();
  // Same expression over an identical clone as the serial epilogue.
  m.offered_rate_per_us = shard[0]->streams_.totalRatePerUs();
  m.throughput_per_us = static_cast<double>(completed) / config.measure_us;
  m.utilization = busy.average(end_time) / config.num_procs;
  m.mean_queue_len = queue.average(end_time);
  m.arrived = arrived;
  m.completed = completed;
  m.backlog_end = backlog_end;
  m.reclassifications = reclass;
  m.steals = steals;
  m.stolen_jobs = stolen;
  m.flow_migrations = migrations;
  m.flow_inserts = flow_inserts;
  m.flow_hits = flow_hits;
  m.flow_occupancy = flow_occupancy;
  m.flow_capacity = sm.empty() ? 0 : sm[0].flow_capacity;
  const std::uint64_t floor = 6ull * config.num_procs;
  m.saturated = backlog_end > floor && backlog_mid > config.num_procs &&
                2 * backlog_end > 3 * backlog_mid;
  if (config.per_stream_stats) {
    m.per_stream_mean_delay_us.assign(streams.count(), 0.0);
    for (unsigned i = 0; i < num_shards; ++i) {
      for (std::size_t s = 0; s < shard[i]->per_stream_delay_.size(); ++s) {
        if (shard[i]->owned_stream_[s] != 0) {
          m.per_stream_mean_delay_us[s] = shard[i]->per_stream_delay_[s].mean();
        }
      }
    }
  }
  return m;
}

void exportParallelRunInfo(const ParallelRunInfo& info, obs::MetricsRegistry& reg,
                           const std::string& prefix) {
  reg.gauge(prefix + ".engaged").set(info.parallel ? 1.0 : 0.0);
  reg.gauge(prefix + ".shards").set(static_cast<double>(info.shards));
  reg.gauge(prefix + ".epochs").set(static_cast<double>(info.epochs));
  reg.gauge(prefix + ".lookahead_us").set(info.lookahead_us);
  reg.gauge(prefix + ".replay_fallback").set(info.replay_fallback ? 1.0 : 0.0);
}

}  // namespace affinity

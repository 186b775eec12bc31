#include "runtime/chaos.hpp"

#include <sstream>

#include "runtime/dispatch_engine.hpp"
#include "workload/frame_gen.hpp"

namespace affinity {

namespace {

OverloadPolicy parseOverloadPolicy(const std::string& name) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "reject-newest") return OverloadPolicy::kRejectNewest;
  if (name == "drop-oldest") return OverloadPolicy::kDropOldest;
  if (name == "shed-new-flows") return OverloadPolicy::kShedNewFlows;
  AFF_CHECK(false &&
            "unknown overload policy (block|reject-newest|drop-oldest|shed-new-flows)");
  return OverloadPolicy::kBlock;
}

/// Drives `engine` (constructed, not yet opened) through one scenario.
ChaosReport drive(Engine& engine, EngineKind kind, const ChaosConfig& cfg) {
  ChaosReport rep;
  rep.kind = kind;
  rep.generated = cfg.frames;

  FrameCorpus::Options corpus_opts;
  corpus_opts.streams = cfg.streams;
  FrameCorpus corpus(cfg.seed, corpus_opts);
  // Independent randomness for faults so changing fault rates never
  // perturbs the generated traffic.
  FaultInjector injector(cfg.seed ^ 0x5DEECE66DULL, cfg.faults);
  // Adversarial stream selection: a pure function of the submission index,
  // so it perturbs neither fault randomness nor frame bytes.
  AdversaryOptions adv_opts = cfg.adversary;
  adv_opts.streams = cfg.streams;
  adv_opts.seed = cfg.seed;
  if (adv_opts.collision_buckets == 0) adv_opts.collision_buckets = cfg.workers;
  const AdversaryPattern adversary(adv_opts);

  engine.openPort(corpus.dstPort(), /*session_queue=*/4096);
  engine.start();

  // Fault-injection instants land on the harness track of the global trace
  // session (if any); the engine's own spans were wired up by start().
  obs::TraceSession* trace = obs::TraceSession::active();
  const std::uint32_t chaos_track = trace != nullptr ? trace->track("chaos harness") : 0;

  std::vector<WorkItem> batch;
  for (std::uint64_t i = 0; i < cfg.frames; ++i) {
    // Scheduled worker faults trigger on the generation index, which is
    // independent of fault randomness — so a given scenario kills/stalls
    // at the same point in the traffic on every run.
    if (cfg.kill_at != 0 && i == cfg.kill_at) {
      engine.injectWorkerKill(cfg.kill_worker % cfg.workers);
      if (trace != nullptr)
        trace->instant(chaos_track, "inject kill", trace->steadyNowUs(),
                       cfg.kill_worker % cfg.workers);
    }
    if (cfg.stall_at != 0 && i == cfg.stall_at) {
      engine.injectWorkerStall(cfg.stall_worker % cfg.workers, cfg.stall_duration);
      if (trace != nullptr)
        trace->instant(chaos_track, "inject stall", trace->steadyNowUs(),
                       cfg.stall_worker % cfg.workers);
    }

    const std::uint32_t stream = adversary.streamAt(i);
    // seq = generation index: globally (hence per-stream) monotonic, so
    // the ordering tests can audit delivery order of chaos traffic too.
    WorkItem item{corpus.frame(stream, i), stream, {}, i};
    batch.clear();
    injector.apply(std::move(item), batch);
    for (auto& out : batch) engine.submit(std::move(out));
  }
  batch.clear();
  injector.flush(batch);
  for (auto& out : batch) engine.submit(std::move(out));

  engine.stop();
  rep.faults = injector.counts();
  rep.stats = engine.stats();
  rep.intake_balanced =
      rep.faults.emitted == rep.stats.submitted + rep.stats.rejected;
  rep.conserved = rep.intake_balanced && rep.stats.conserved();
  if (cfg.metrics != nullptr) {
    const std::string prefix = std::string("chaos.") + engineKindName(kind);
    exportEngineStats(rep.stats, *cfg.metrics, prefix);
    exportFlowStats(rep.stats, *cfg.metrics, prefix + ".flow");
    auto& reg = *cfg.metrics;
    const auto g = [&](const char* leaf, std::uint64_t v) {
      reg.gauge(prefix + ".faults." + leaf).set(static_cast<double>(v));
    };
    g("emitted", rep.faults.emitted);
    g("dropped", rep.faults.dropped);
    g("bitflips", rep.faults.bitflips);
    g("truncations", rep.faults.truncations);
    g("duplicates", rep.faults.duplicates);
    g("reordered", rep.faults.reordered);
    reg.gauge(prefix + ".run_conserved").set(rep.conserved ? 1.0 : 0.0);
    exportArenaStats(reg);
  }
  return rep;
}

}  // namespace

const char* engineKindName(EngineKind k) noexcept {
  switch (k) {
    case EngineKind::kLocking:
      return "locking";
    case EngineKind::kIps:
      return "ips";
    case EngineKind::kDispatch:
      return "dispatch";
  }
  return "?";
}

ChaosReport runChaos(EngineKind kind, const ChaosConfig& config) {
  AFF_CHECK(config.workers >= 1);
  AFF_CHECK(config.streams >= 1);
  switch (kind) {
    case EngineKind::kLocking: {
      LockingEngine engine(config.workers, HostConfig{}, config.engine);
      return drive(engine, kind, config);
    }
    case EngineKind::kIps: {
      IpsEngine engine(config.workers, HostConfig{}, config.engine);
      return drive(engine, kind, config);
    }
    case EngineKind::kDispatch: {
      // kStreamHash: the placement the steal/NIC front-ends act against.
      DispatchEngine engine(config.workers, DispatchPolicy::kStreamHash, HostConfig{},
                            config.engine);
      return drive(engine, kind, config);
    }
  }
  AFF_CHECK(false && "unknown engine kind");
  return {};
}

std::string ChaosReport::describe() const {
  std::ostringstream os;
  os << "engine=" << engineKindName(kind) << "\n"
     << "  generated            " << generated << "\n"
     << "  injector: emitted=" << faults.emitted << " dropped=" << faults.dropped
     << " bitflips=" << faults.bitflips << " truncations=" << faults.truncations
     << " duplicates=" << faults.duplicates << " reordered=" << faults.reordered << "\n"
     << "  submitted            " << stats.submitted << "\n"
     << "  rejected             " << stats.rejected << " (queue_full=" << stats.rejected_queue_full
     << " stopped=" << stats.rejected_stopped << " shed=" << stats.rejected_shed << ")\n"
     << "  delivered            " << stats.delivered << "\n"
     << "  dropped_oldest       " << stats.dropped_oldest << "\n"
     << "  worker_failures      " << stats.worker_failures << "\n"
     << "  rehomed              " << stats.rehomed << "\n";
  if (stats.flow_capacity != 0) {
    os << "  flow table           occupancy=" << stats.flow_occupancy << "/"
       << stats.flow_capacity << " inserts=" << stats.flow_inserts
       << " hits=" << stats.flow_hits << "\n"
       << "  evicted_inflight     " << stats.evicted_inflight
       << " (consumed=" << stats.evicted_consumed << ")\n";
    for (std::size_t r = 0; r < stats.evicted_by_reason.size(); ++r) {
      if (stats.evicted_by_reason[r] == 0) continue;
      os << "  evicted[" << flow::evictReasonName(static_cast<flow::EvictReason>(r))
         << "] = " << stats.evicted_by_reason[r] << "\n";
    }
  }
  if (stats.steals != 0 || stats.stolen != 0)
    os << "  steals               " << stats.steals << " (" << stats.stolen << " frames)\n";
  if (stats.nic_pins != 0 || stats.nic_migrations != 0)
    os << "  nic pins/migrations  " << stats.nic_pins << "/" << stats.nic_migrations << "\n";
  for (std::size_t i = 1; i < stats.dropped_by_reason.size(); ++i) {
    if (stats.dropped_by_reason[i] == 0) continue;
    os << "  drop[" << dropReasonName(static_cast<DropReason>(i))
       << "] = " << stats.dropped_by_reason[i] << "\n";
  }
  os << "  intake_balanced      " << (intake_balanced ? "yes" : "NO") << "\n"
     << "  conserved            " << (conserved ? "yes" : "NO") << "\n";
  return os.str();
}

ChaosConfig loadChaosConfig(const ConfigFile& file) {
  ChaosConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(file.getInt("chaos.seed", static_cast<std::int64_t>(cfg.seed)));
  cfg.frames = static_cast<std::uint64_t>(file.getInt("chaos.frames", static_cast<std::int64_t>(cfg.frames)));
  cfg.workers = static_cast<unsigned>(file.getInt("chaos.workers", cfg.workers));
  cfg.streams = static_cast<std::uint32_t>(file.getInt("chaos.streams", cfg.streams));
  cfg.faults.drop = file.getDouble("chaos.drop_rate", cfg.faults.drop);
  cfg.faults.bitflip = file.getDouble("chaos.bitflip_rate", cfg.faults.bitflip);
  cfg.faults.truncate = file.getDouble("chaos.truncate_rate", cfg.faults.truncate);
  cfg.faults.duplicate = file.getDouble("chaos.duplicate_rate", cfg.faults.duplicate);
  cfg.faults.reorder = file.getDouble("chaos.reorder_rate", cfg.faults.reorder);
  cfg.kill_at = static_cast<std::uint64_t>(file.getInt("chaos.kill_at", 0));
  cfg.kill_worker = static_cast<unsigned>(file.getInt("chaos.kill_worker", 0));
  cfg.stall_at = static_cast<std::uint64_t>(file.getInt("chaos.stall_at", 0));
  cfg.stall_worker = static_cast<unsigned>(file.getInt("chaos.stall_worker", 0));
  cfg.stall_duration =
      std::chrono::milliseconds(file.getInt("chaos.stall_ms", cfg.stall_duration.count()));

  const std::string workload =
      file.getString("chaos.workload", adversaryKindName(cfg.adversary.kind));
  AFF_CHECK(parseAdversaryKind(workload, &cfg.adversary.kind) &&
            "unknown chaos.workload (none|zipf|churn|flash|collision)");
  cfg.adversary.zipf_alpha = file.getDouble("chaos.zipf_alpha", cfg.adversary.zipf_alpha);
  cfg.adversary.churn_period = static_cast<std::uint64_t>(
      file.getInt("chaos.churn_period", static_cast<std::int64_t>(cfg.adversary.churn_period)));
  cfg.adversary.churn_active =
      static_cast<std::uint32_t>(file.getInt("chaos.churn_active", cfg.adversary.churn_active));
  cfg.adversary.flash_period = static_cast<std::uint64_t>(
      file.getInt("chaos.flash_period", static_cast<std::int64_t>(cfg.adversary.flash_period)));
  cfg.adversary.flash_len = static_cast<std::uint64_t>(
      file.getInt("chaos.flash_len", static_cast<std::int64_t>(cfg.adversary.flash_len)));
  cfg.adversary.flash_hot =
      static_cast<std::uint32_t>(file.getInt("chaos.flash_hot", cfg.adversary.flash_hot));
  cfg.adversary.collision_buckets = static_cast<unsigned>(
      file.getInt("chaos.collision_buckets", cfg.adversary.collision_buckets));
  cfg.adversary.collision_fraction =
      file.getDouble("chaos.collision_fraction", cfg.adversary.collision_fraction);

  cfg.engine.queue_capacity =
      static_cast<std::size_t>(file.getInt("engine.queue_capacity",
                                           static_cast<std::int64_t>(cfg.engine.queue_capacity)));
  cfg.engine.overload =
      parseOverloadPolicy(file.getString("engine.overload", overloadPolicyName(cfg.engine.overload)));
  cfg.engine.submit_deadline =
      std::chrono::microseconds(file.getInt("engine.submit_deadline_us", 0));
  cfg.engine.watchdog = file.getBool("engine.watchdog", cfg.engine.watchdog);
  cfg.engine.watchdog_interval =
      std::chrono::milliseconds(file.getInt("engine.watchdog_interval_ms",
                                            cfg.engine.watchdog_interval.count()));
  cfg.engine.stall_timeout = std::chrono::milliseconds(
      file.getInt("engine.stall_timeout_ms", cfg.engine.stall_timeout.count()));
  const std::string nic = file.getString("engine.nic", net::nicModeName(cfg.engine.nic_mode));
  AFF_CHECK(net::parseNicMode(nic, &cfg.engine.nic_mode) &&
            "unknown engine.nic (direct|rss|flow-director)");
  cfg.engine.steal = file.getBool("engine.steal", cfg.engine.steal);
  cfg.engine.steal_batch =
      static_cast<unsigned>(file.getInt("engine.steal_batch", cfg.engine.steal_batch));

  cfg.engine.flow.enabled = file.getBool("engine.flow_enabled", cfg.engine.flow.enabled);
  cfg.engine.flow.budget_bytes = static_cast<std::size_t>(file.getInt(
      "engine.flow_budget_bytes", static_cast<std::int64_t>(cfg.engine.flow.budget_bytes)));
  cfg.engine.flow.shards =
      static_cast<unsigned>(file.getInt("engine.flow_shards", cfg.engine.flow.shards));
  const std::string evict = file.getString("engine.flow_policy",
                                           flow::evictPolicyName(cfg.engine.flow.policy));
  AFF_CHECK(flow::parseEvictPolicy(evict, &cfg.engine.flow.policy) &&
            "unknown engine.flow_policy (lru|fifo|random|direct)");
  cfg.engine.flow.shed_high_water =
      file.getDouble("engine.flow_high_water", cfg.engine.flow.shed_high_water);
  cfg.engine.flow.shed_low_water =
      file.getDouble("engine.flow_low_water", cfg.engine.flow.shed_low_water);
  cfg.engine.flow.shed_admit_fraction =
      file.getDouble("engine.flow_admit_fraction", cfg.engine.flow.shed_admit_fraction);
  cfg.engine.flow.seed = static_cast<std::uint64_t>(
      file.getInt("engine.flow_seed", static_cast<std::int64_t>(cfg.engine.flow.seed)));
  return cfg;
}

}  // namespace affinity

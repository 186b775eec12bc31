#include "runtime/chaos.hpp"

#include <sstream>

#include "runtime/dispatch_engine.hpp"
#include "workload/frame_gen.hpp"

namespace affinity {

namespace {

bool parseOverloadPolicy(const std::string& name, OverloadPolicy* out) {
  if (name == "block") *out = OverloadPolicy::kBlock;
  else if (name == "reject-newest") *out = OverloadPolicy::kRejectNewest;
  else if (name == "drop-oldest") *out = OverloadPolicy::kDropOldest;
  else if (name == "shed-new-flows") *out = OverloadPolicy::kShedNewFlows;
  else return false;
  return true;
}

/// Reads a non-negative duration key (in `Duration`'s unit) over `*out`.
template <typename Duration>
bool readDuration(const ConfigFile& file, const std::string& key, Duration* out,
                  std::string* error) {
  typename Duration::rep count = 0;
  if (!readInt(file, key, out->count(), &count, error)) return false;
  *out = Duration(count);
  return true;
}

/// Reads `key` through `parse` (one of the enum parsers), failing with the
/// key's name and the accepted spellings when the value is not one of them.
template <typename T, typename Parse>
bool readEnum(const ConfigFile& file, const std::string& key, const char* current, Parse parse,
              const char* accepted, T* out, std::string* error) {
  const std::string value = file.getString(key, current);
  if (parse(value, out)) return true;
  if (error) *error = "unknown " + key + " '" + value + "' (" + accepted + ")";
  return false;
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

std::optional<ChaosConfig> loadChaosConfig(const ConfigFile& file, std::string* error) {
  ChaosConfig cfg;
  AdversaryOptions& adv = cfg.adversary;
  EngineOptions& eng = cfg.engine;
  const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
  // The same bounds as machine.processors and workload.streams in the
  // simulator's scenarios.
  if (!readInt(file, "chaos.seed", i64(cfg.seed), &cfg.seed, error) ||
      !readInt(file, "chaos.frames", i64(cfg.frames), &cfg.frames, error) ||
      !readInt(file, "chaos.workers", cfg.workers, &cfg.workers, error, 1, 64) ||
      !readInt(file, "chaos.streams", cfg.streams, &cfg.streams, error, 1, std::int64_t{1} << 24) ||
      !readInt(file, "chaos.kill_at", 0, &cfg.kill_at, error) ||
      !readInt(file, "chaos.kill_worker", 0, &cfg.kill_worker, error) ||
      !readInt(file, "chaos.stall_at", 0, &cfg.stall_at, error) ||
      !readInt(file, "chaos.stall_worker", 0, &cfg.stall_worker, error) ||
      !readDuration(file, "chaos.stall_ms", &cfg.stall_duration, error))
    return std::nullopt;
  cfg.faults.drop = file.getDouble("chaos.drop_rate", cfg.faults.drop);
  cfg.faults.bitflip = file.getDouble("chaos.bitflip_rate", cfg.faults.bitflip);
  cfg.faults.truncate = file.getDouble("chaos.truncate_rate", cfg.faults.truncate);
  cfg.faults.duplicate = file.getDouble("chaos.duplicate_rate", cfg.faults.duplicate);
  cfg.faults.reorder = file.getDouble("chaos.reorder_rate", cfg.faults.reorder);

  if (!readEnum(file, "chaos.workload", adversaryKindName(adv.kind), parseAdversaryKind,
                "none|zipf|churn|flash|collision", &adv.kind, error) ||
      !readInt(file, "chaos.churn_period", i64(adv.churn_period), &adv.churn_period, error) ||
      !readInt(file, "chaos.churn_active", adv.churn_active, &adv.churn_active, error) ||
      !readInt(file, "chaos.flash_period", i64(adv.flash_period), &adv.flash_period, error) ||
      !readInt(file, "chaos.flash_len", i64(adv.flash_len), &adv.flash_len, error) ||
      !readInt(file, "chaos.flash_hot", adv.flash_hot, &adv.flash_hot, error) ||
      !readInt(file, "chaos.collision_buckets", adv.collision_buckets, &adv.collision_buckets,
               error))
    return std::nullopt;
  adv.zipf_alpha = file.getDouble("chaos.zipf_alpha", adv.zipf_alpha);
  adv.collision_fraction = file.getDouble("chaos.collision_fraction", adv.collision_fraction);

  if (!readInt(file, "engine.queue_capacity", i64(eng.queue_capacity), &eng.queue_capacity,
               error, 1) ||
      !readEnum(file, "engine.overload", overloadPolicyName(eng.overload), parseOverloadPolicy,
                "block|reject-newest|drop-oldest|shed-new-flows", &eng.overload, error) ||
      !readDuration(file, "engine.submit_deadline_us", &eng.submit_deadline, error) ||
      !readDuration(file, "engine.watchdog_interval_ms", &eng.watchdog_interval, error) ||
      !readDuration(file, "engine.stall_timeout_ms", &eng.stall_timeout, error) ||
      !readEnum(file, "engine.nic", net::nicModeName(eng.nic_mode), net::parseNicMode,
                "direct|rss|flow-director|tfn", &eng.nic_mode, error) ||
      !readInt(file, "engine.steal_batch", eng.steal_batch, &eng.steal_batch, error, 1))
    return std::nullopt;
  eng.watchdog = file.getBool("engine.watchdog", eng.watchdog);
  eng.steal = file.getBool("engine.steal", eng.steal);

  flow::FlowTableConfig& flow = eng.flow;
  if (!readInt(file, "engine.flow_budget_bytes", i64(flow.budget_bytes), &flow.budget_bytes,
               error) ||
      !readInt(file, "engine.flow_shards", flow.shards, &flow.shards, error) ||
      !readEnum(file, "engine.flow_policy", flow::evictPolicyName(flow.policy),
                flow::parseEvictPolicy, "lru|fifo|random|direct", &flow.policy, error) ||
      !readInt(file, "engine.flow_seed", i64(flow.seed), &flow.seed, error))
    return std::nullopt;
  flow.enabled = file.getBool("engine.flow_enabled", flow.enabled);
  flow.shed_high_water = file.getDouble("engine.flow_high_water", flow.shed_high_water);
  flow.shed_low_water = file.getDouble("engine.flow_low_water", flow.shed_low_water);
  flow.shed_admit_fraction = file.getDouble("engine.flow_admit_fraction", flow.shed_admit_fraction);
  return cfg;
}

}  // namespace affinity

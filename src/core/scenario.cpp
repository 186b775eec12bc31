#include "core/scenario.hpp"

#include <cmath>
#include <sstream>

#include "cachesim/rd_capture.hpp"
#include "core/experiment.hpp"

#include "workload/trace_io.hpp"

namespace affinity {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

// Upper bounds for counts that size per-item state up front.
constexpr std::int64_t kMaxStacks = std::int64_t{1} << 16;
constexpr std::int64_t kMaxStreams = std::int64_t{1} << 24;

bool parsePolicy(const ConfigFile& cfg, SimConfig& out, std::string* error) {
  const std::string paradigm = cfg.getString("policy.paradigm", "locking");
  if (paradigm == "locking") {
    out.policy.paradigm = Paradigm::kLocking;
  } else if (paradigm == "ips") {
    out.policy.paradigm = Paradigm::kIps;
  } else if (paradigm == "hybrid") {
    out.policy.paradigm = Paradigm::kHybrid;
  } else {
    return fail(error, "unknown policy.paradigm '" + paradigm + "'");
  }

  const std::string locking = cfg.getString("policy.locking", "mru");
  if (locking == "fcfs") {
    out.policy.locking = LockingPolicy::kFcfs;
  } else if (locking == "mru") {
    out.policy.locking = LockingPolicy::kMru;
  } else if (locking == "stream-mru") {
    out.policy.locking = LockingPolicy::kStreamMru;
  } else if (locking == "wired-streams") {
    out.policy.locking = LockingPolicy::kWiredStreams;
  } else if (locking == "steal-affinity") {
    out.policy.locking = LockingPolicy::kStealAffinity;
  } else {
    return fail(error, "unknown policy.locking '" + locking + "'");
  }

  const std::string ips = cfg.getString("policy.ips", "wired");
  if (ips == "random") {
    out.policy.ips = IpsPolicy::kRandom;
  } else if (ips == "mru") {
    out.policy.ips = IpsPolicy::kMru;
  } else if (ips == "wired") {
    out.policy.ips = IpsPolicy::kWired;
  } else {
    return fail(error, "unknown policy.ips '" + ips + "'");
  }

  if (!readInt(cfg, "policy.stacks", 0, &out.policy.ips_stacks, error, 0, kMaxStacks))
    return false;
  out.adaptive_hybrid = cfg.getBool("policy.adaptive", false);

  // The NIC front-end reads from its own [net] section, with the historical
  // [policy] spelling kept as a fallback (every shipped scenario predating
  // the section still parses identically).
  const std::string dispatch =
      cfg.getString("net.dispatch", cfg.getString("policy.dispatch", "direct"));
  if (!net::parseNicMode(dispatch, &out.dispatch))
    return fail(error, "unknown net.dispatch '" + dispatch + "'");
  if (!readInt(cfg, "net.tfn_window", net::NicDispatcher::kDefaultTfnWindow, &out.tfn_window,
               error, 1) ||
      !readInt(cfg, "policy.steal_batch", 4, &out.steal_batch, error) ||
      !readInt(cfg, "policy.steal_min_queue", 2, &out.steal_min_queue, error))
    return false;
  out.steal_penalty_us = cfg.getDouble("policy.steal_penalty_us", 5.0);
  if (!(out.steal_penalty_us >= 0.0))
    return fail(error, "policy.steal_penalty_us must be >= 0");

  // A key that only one mode reads is an error under any other mode: a
  // scenario that sets it would otherwise run with the key silently ignored.
  if (cfg.has("net.tfn_window") && out.dispatch != net::NicDispatchMode::kTransportFriendly)
    return fail(error, "net.tfn_window requires net.dispatch = tfn");
  for (const char* key :
       {"policy.steal_batch", "policy.steal_min_queue", "policy.steal_penalty_us"}) {
    if (cfg.has(key) && out.policy.locking != LockingPolicy::kStealAffinity)
      return fail(error, std::string(key) + " requires policy.locking = steal-affinity");
  }

  const std::string hybrid_list = cfg.getString("policy.hybrid_locking_streams", "");
  if (!hybrid_list.empty()) {
    if (out.policy.paradigm != Paradigm::kHybrid)
      return fail(error, "policy.hybrid_locking_streams requires policy.paradigm = hybrid");
    std::stringstream ss(hybrid_list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      long long id = -1;
      try {
        id = std::stoll(item);
      } catch (...) {
      }
      if (id < 0 || id > maxConfigValue<std::uint32_t>())
        return fail(error, "bad stream id '" + item + "' in hybrid_locking_streams");
      out.policy.hybrid_locking_streams.push_back(static_cast<std::uint32_t>(id));
    }
  }
  return true;
}

bool parseModel(const ConfigFile& cfg, ExecTimeModel& out, std::string* error) {
  const std::string profile = cfg.getString("model.profile", "udp-receive");
  ReloadParams reload;
  FootprintShares shares;  // receive-path defaults
  if (profile == "udp-receive") {
    reload = ReloadParams::measuredUdpReceive();
  } else if (profile == "udp-send") {
    reload = ReloadParams::measuredUdpSend();
  } else if (profile == "tcp-receive") {
    reload = ReloadParams::measuredTcpReceive();
  } else {
    return fail(error, "unknown model.profile '" + profile + "'");
  }
  reload.t_warm_us = cfg.getDouble("model.t_warm_us", reload.t_warm_us);
  reload.dl1_us = cfg.getDouble("model.dl1_us", reload.dl1_us);
  reload.dl2_us = cfg.getDouble("model.dl2_us", reload.dl2_us);
  // Negated comparisons so a NaN fails too.
  if (!(reload.t_warm_us > 0.0)) return fail(error, "model.t_warm_us must be > 0");
  if (!(reload.dl1_us >= 0.0)) return fail(error, "model.dl1_us must be >= 0");
  if (!(reload.dl2_us >= 0.0)) return fail(error, "model.dl2_us must be >= 0");
  out = ExecTimeModel(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                      reload, shares);
  return true;
}

// [cache] — displacement-model plugin seam (DESIGN.md). Runs after
// parseModel so the reuse/LLC variants inherit whatever reload profile and
// overrides [model] selected; with the default `model = sst` on the
// `sgi-challenge` topology this is a no-op and the scenario is bit-identical
// to the pre-[cache] schema.
bool parseCache(const ConfigFile& cfg, unsigned num_procs, ExecTimeModel& model,
                std::string* error) {
  const std::string kind = cfg.getString("cache.model", "sst");
  const std::string topology = cfg.getString("cache.topology", "sgi-challenge");

  MachineParams machine;
  if (topology == "sgi-challenge") {
    machine = MachineParams::sgiChallenge();
  } else if (topology == "modern-llc") {
    machine = MachineParams::modern2020();
  } else {
    return fail(error, "unknown cache.topology '" + topology + "'");
  }
  const bool has_llc = machine.llc.size_bytes > 0;

  ReloadParams reload = model.reloadParams();
  const FootprintShares shares = model.shares();
  if (has_llc) {
    const double llc_split = cfg.getDouble("cache.llc_split", 0.6);
    if (!(llc_split >= 0.0 && llc_split <= 1.0))
      return fail(error, "cache.llc_split must be in [0, 1]");
    reload = reload.splitForSharedLlc(llc_split);
  }

  if (kind == "sst") {
    // Default model + default topology: keep the model parseModel built.
    if (topology == "sgi-challenge") return true;
    model = ExecTimeModel(FlushModel(machine, SstParams::mvsWorkload()), reload, shares);
    return true;
  }
  if (kind != "reuse") return fail(error, "unknown cache.model '" + kind + "'");

  RdCaptureParams capture;
  if (!readInt(cfg, "cache.profile_streams", capture.profile_streams, &capture.profile_streams,
               error, 1) ||
      !readInt(cfg, "cache.profile_packets", capture.profile_packets, &capture.profile_packets,
               error, 1) ||
      !readInt(cfg, "cache.profile_bg_refs", static_cast<std::int64_t>(capture.profile_bg_refs),
               &capture.profile_bg_refs, error, 1) ||
      !readInt(cfg, "cache.profile_seed", 42, &capture.profile_seed, error))
    return false;
  // Co-runners share the LLC; on the shared-LLC topology every processor's
  // packet stream competes for it, so default to the machine size there.
  if (!readInt(cfg, "cache.co_runners", has_llc ? num_procs : 1u, &capture.co_runners, error, 1))
    return false;
  capture.protocol_duty = cfg.getDouble("cache.duty", capture.protocol_duty);
  if (capture.protocol_duty < 0.0 || capture.protocol_duty > 1.0)
    return fail(error, "cache.duty must be in [0, 1]");

  model = ExecTimeModel(cachedDefaultRdModel(machine, capture), reload, shares);
  return true;
}

// Workload values are checked with negated comparisons, like the machine
// and run values below: each bad value would abort the run when its
// arrival process is built.
bool parseWorkload(const ConfigFile& cfg, StreamSet& out, std::string* error) {
  const std::string type = cfg.getString("workload.type", "poisson");
  std::size_t streams = 0;
  if (!readInt(cfg, "workload.streams", 16, &streams, error, 0, kMaxStreams)) return false;
  const double rate = cfg.getDouble("workload.rate_pkts_per_s", 12'000.0) / 1e6;
  if (type != "trace" && streams == 0) return fail(error, "workload.streams must be > 0");
  if (type != "trace" && !(rate > 0.0 && std::isfinite(rate)))
    return fail(error, "workload.rate_pkts_per_s must be finite and > 0");

  if (type == "poisson") {
    out = makePoissonStreams(streams, rate);
  } else if (type == "batch") {
    const double batch = cfg.getDouble("workload.batch", 8.0);
    if (!(batch >= 1.0)) return fail(error, "workload.batch must be >= 1");
    out = makeBatchStreams(streams, rate, batch, cfg.getBool("workload.geometric", false));
  } else if (type == "train") {
    const double len = cfg.getDouble("workload.train_len", 8.0);
    const double gap = cfg.getDouble("workload.intercar_gap_us", 30.0);
    if (!(len >= 1.0)) return fail(error, "workload.train_len must be >= 1");
    if (!(gap >= 0.0)) return fail(error, "workload.intercar_gap_us must be >= 0");
    // A train's cars must fit in its share of the stream's arrival period.
    const double per_stream = rate / static_cast<double>(streams);
    if (!(len / per_stream - (len - 1.0) * gap > 0.0))
      return fail(error, "workload.intercar_gap_us is too long for the per-stream rate");
    out = makeTrainStreams(streams, rate, len, gap);
  } else if (type == "hotcold") {
    std::size_t hot = 0;
    if (!readInt(cfg, "workload.hot", 2, &hot, error, 1, static_cast<std::int64_t>(streams) - 1))
      return false;
    const double share = cfg.getDouble("workload.hot_share", 0.5);
    if (!(share > 0.0 && share < 1.0)) return fail(error, "workload.hot_share must be in (0, 1)");
    out = makeHotColdStreams(hot, streams - hot, rate, share);
  } else if (type == "zipf") {
    const double alpha = cfg.getDouble("workload.zipf_alpha", 1.0);
    // The last stream's rate is rate / (streams^alpha * norm), norm <= streams.
    if (!(alpha >= 0.0 && rate / std::pow(static_cast<double>(streams), alpha + 1.0) > 0.0))
      return fail(error, "workload.zipf_alpha must be >= 0 and leave every stream a rate > 0");
    out = makeZipfStreams(streams, rate, alpha);
  } else if (type == "churn") {
    const double span = cfg.getDouble("workload.churn_span_us", 1'000'000.0);
    if (!(span >= 0.0 && std::isfinite(span)))
      return fail(error, "workload.churn_span_us must be finite and >= 0");
    out = makeChurnStreams(streams, rate, span);
  } else if (type == "trace") {
    const std::string path = cfg.getString("workload.trace_file", "");
    if (path.empty()) return fail(error, "workload.type=trace requires workload.trace_file");
    std::string read_error;
    const auto records = readArrivalTrace(path, &read_error);
    if (records.empty()) return fail(error, "trace: " + read_error);
    out = makeTraceStreams(records);
  } else {
    return fail(error, "unknown workload.type '" + type + "'");
  }
  return true;
}

bool parseFlow(const ConfigFile& cfg, SimConfig& out, std::string* error) {
  out.flow.enabled = cfg.getBool("flow.enabled", out.flow.enabled);
  if (!readInt(cfg, "flow.budget_bytes", static_cast<std::int64_t>(out.flow.budget_bytes),
               &out.flow.budget_bytes, error) ||
      !readInt(cfg, "flow.shards", out.flow.shards, &out.flow.shards, error))
    return false;
  const std::string policy = cfg.getString("flow.policy", "lru");
  if (!flow::parseEvictPolicy(policy, &out.flow.policy))
    return fail(error, "unknown flow.policy '" + policy + "'");
  out.flow.shed_enabled = cfg.getBool("flow.shed", out.flow.shed_enabled);
  out.flow.shed_high_water = cfg.getDouble("flow.high_water", out.flow.shed_high_water);
  out.flow.shed_low_water = cfg.getDouble("flow.low_water", out.flow.shed_low_water);
  out.flow.shed_admit_fraction =
      cfg.getDouble("flow.admit_fraction", out.flow.shed_admit_fraction);
  if (!readInt(cfg, "flow.seed", static_cast<std::int64_t>(out.flow.seed), &out.flow.seed,
               error))
    return false;
  const auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!fraction(out.flow.shed_high_water)) return fail(error, "flow.high_water must be in [0, 1]");
  if (!fraction(out.flow.shed_low_water)) return fail(error, "flow.low_water must be in [0, 1]");
  if (!fraction(out.flow.shed_admit_fraction))
    return fail(error, "flow.admit_fraction must be in [0, 1]");
  if (out.flow.shed_high_water < out.flow.shed_low_water)
    return fail(error, "flow.high_water must be >= flow.low_water");
  return true;
}

// Machine and run values are checked with negated comparisons, so a NaN
// fails too. Each would otherwise abort the run (a negative delay schedules
// an event in the past) or corrupt its output (a zero window divides by 0).
bool parseMachine(const ConfigFile& cfg, SimConfig& out, std::string* error) {
  if (!readInt(cfg, "machine.processors", 8, &out.num_procs, error, 1, 64)) return false;
  out.lock_overhead_us = cfg.getDouble("machine.lock_overhead_us", 20.0);
  out.critical_section_us = cfg.getDouble("machine.critical_section_us", 8.0);
  out.bus_occupancy_fraction = cfg.getDouble("machine.bus_occupancy", 0.0);
  if (!(out.lock_overhead_us >= 0.0)) return fail(error, "machine.lock_overhead_us must be >= 0");
  if (!(out.critical_section_us >= 0.0))
    return fail(error, "machine.critical_section_us must be >= 0");
  if (!(out.bus_occupancy_fraction >= 0.0 && out.bus_occupancy_fraction <= 1.0))
    return fail(error, "machine.bus_occupancy must be in [0, 1]");
  return true;
}

bool parseRun(const ConfigFile& cfg, SimConfig& out, std::string* error) {
  if (!readInt(cfg, "run.seed", 1, &out.seed, error)) return false;
  out.warmup_us = cfg.getDouble("run.warmup_us", 200'000.0);
  out.measure_us = cfg.getDouble("run.measure_us", 2'000'000.0);
  out.fixed_overhead_us = cfg.getDouble("run.v_us", 0.0);
  out.per_stream_stats = cfg.getBool("run.per_stream", false);
  if (!readInt(cfg, "run.parallel", 0, &out.parallel_procs, error)) return false;
  if (!(out.warmup_us >= 0.0)) return fail(error, "run.warmup_us must be >= 0");
  if (!(out.measure_us > 0.0)) return fail(error, "run.measure_us must be > 0");
  if (!(out.fixed_overhead_us >= 0.0)) return fail(error, "run.v_us must be >= 0");
  return true;
}

}  // namespace

std::optional<Scenario> buildScenario(const ConfigFile& cfg, std::string* error) {
  Scenario s;
  s.config = defaultSimConfig();
  if (!parseMachine(cfg, s.config, error)) return std::nullopt;
  if (!parseModel(cfg, s.model, error)) return std::nullopt;
  if (!parseCache(cfg, s.config.num_procs, s.model, error)) return std::nullopt;
  if (!parseWorkload(cfg, s.streams, error)) return std::nullopt;
  if (!parsePolicy(cfg, s.config, error)) return std::nullopt;
  if (!parseFlow(cfg, s.config, error)) return std::nullopt;
  if (!parseRun(cfg, s.config, error)) return std::nullopt;
  s.run_until_confident = cfg.getBool("run.confident", false);

  if (s.config.adaptive_hybrid && s.config.policy.paradigm != Paradigm::kHybrid) {
    if (error) *error = "policy.adaptive requires policy.paradigm = hybrid";
    return std::nullopt;
  }
  return s;
}

}  // namespace affinity

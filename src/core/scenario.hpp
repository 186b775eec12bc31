// scenario.hpp — build a complete experiment from a configuration file.
//
// A scenario file describes machine, model, workload, policy and run
// control; `buildScenario` turns it into the objects the simulator needs.
// This makes experiments reproducible artifacts (see scenarios/*.ini and
// tools/affinity_sim).
//
// Schema (all keys optional; defaults = the paper's standard setup):
//
//   [machine]  processors, lock_overhead_us, critical_section_us,
//              bus_occupancy
//   [model]    profile = udp-receive | udp-send | tcp-receive;
//              t_warm_us / dl1_us / dl2_us overrides
//   [cache]    model = sst | reuse (displacement model behind the reload
//              transients); topology = sgi-challenge | modern-llc (shared
//              32 MiB LLC; splits the memory transient, llc_split);
//              profile_streams, profile_packets, profile_bg_refs,
//              profile_seed, co_runners, duty (reuse-distance capture knobs
//              — docs/DESIGN.md cache-model seam)
//   [workload] type = poisson | batch | train | hotcold | zipf | churn |
//              trace; streams, rate_pkts_per_s, batch, geometric, train_len,
//              intercar_gap_us, hot, hot_share, zipf_alpha, churn_span_us,
//              trace_file
//   [policy]   paradigm = locking | ips | hybrid; locking = fcfs | mru |
//              stream-mru | wired-streams; ips = random | mru | wired;
//              stacks, adaptive, hybrid_locking_streams = 0,1,2
//   [flow]     enabled, budget_bytes, shards, policy = lru | fifo | random |
//              direct; shed, high_water, low_water, admit_fraction, seed
//              (bounded flow-state table — docs/ROBUSTNESS.md)
//   [run]      seed, warmup_us, measure_us, v_us, per_stream, confident,
//              parallel (sharded-parallel thread count, 0 = serial;
//              bit-identical results either way — docs/PARALLEL_SIM.md)
#pragma once

#include <optional>
#include <string>

#include "core/protocol_sim.hpp"
#include "util/config.hpp"

namespace affinity {

/// Everything needed to run one configured experiment.
struct Scenario {
  SimConfig config;
  ExecTimeModel model = ExecTimeModel::standard();
  StreamSet streams;
  bool run_until_confident = false;
};

/// Builds a scenario; nullopt (with `error`) for semantically invalid
/// configurations (unknown enum values, missing trace file, bad rates).
std::optional<Scenario> buildScenario(const ConfigFile& cfg, std::string* error = nullptr);

}  // namespace affinity

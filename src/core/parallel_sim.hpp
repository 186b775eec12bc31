// parallel_sim.hpp — sharded parallel execution of ProtocolSim,
// bit-identical to the serial run.
//
// The eligible configurations — IPS with wired stacks, stateless NIC
// dispatch, no shared bus, no lock path, no observation hooks — decompose
// exactly: stream -> stack -> processor is a fixed map, a processor serves
// only its own stacks, and the cache-affinity ages it reads are functions of
// its own history. Partitioning the simulated processors across shards
// (proc % shards) therefore partitions the *entire event graph*; the only
// state the serial run shares across the partition is the statistics
// accumulators. Each shard runs its slice of the simulation to completion
// on its own thread (no synchronization: the shards share no state) and
// logs every statistics-mutating operation with its virtual timestamp;
// the coordinator then replays the merged logs into
// fresh accumulators in serial order. Floating-point statistics come out
// bit-identical because same-timestamp operations from different shards
// commute bitwise — except two measured completions, the one case that
// falls back to an honest serial rerun (still deterministic: the tie is a
// pure function of config + seed). docs/PARALLEL_SIM.md carries the full
// argument; GoldenSeed.ParallelMatchesSerial is the gate.
#pragma once

#include <cstdint>
#include <string>

#include "core/protocol_sim.hpp"

namespace affinity::obs {
class MetricsRegistry;
}  // namespace affinity::obs

namespace affinity {

/// How a parallel run was actually executed (introspection for tests and
/// tools; never affects results).
struct ParallelRunInfo {
  bool parallel = false;  ///< shards actually ran on threads
  unsigned shards = 0;    ///< shard/thread count used
  bool replay_fallback = false;  ///< cross-shard completion tie -> serial rerun
  const char* fallback_reason = nullptr;  ///< why serial ran (nullptr if parallel)
};

/// True when `config` is in the exactly-decomposable family described
/// above. Ineligible configurations still honor parallel_procs — they just
/// run serially, producing the same bits they always did. runParallel()
/// additionally runs serially when the model has a shared-LLC term
/// (ReloadParams::dl3_us > 0), which couples processors through
/// any-processor ages.
[[nodiscard]] bool parallelEligible(const SimConfig& config, const char** reason = nullptr);

/// Runs the simulation on min(config.parallel_procs, num_procs) threads
/// when eligible (serially otherwise) and returns metrics bit-identical to
/// ProtocolSim::run(). runOnce() routes here when parallel_procs > 1.
RunMetrics runParallel(const SimConfig& config, const ExecTimeModel& model,
                       const StreamSet& streams, ParallelRunInfo* info = nullptr);

/// Publishes a run's ParallelRunInfo as gauges under `prefix`
/// (docs/OBSERVABILITY.md, `sim.parallel.*`). Introspection only — the
/// numbers describe how the run executed, never what it computed.
void exportParallelRunInfo(const ParallelRunInfo& info, obs::MetricsRegistry& reg,
                           const std::string& prefix = "sim.parallel");

/// Implementation: shard construction, the threaded shard runs, and the
/// commit-log merge/replay. Friend of ProtocolSim.
class ParallelProtocolSim {
 public:
  static RunMetrics run(const SimConfig& config, const ExecTimeModel& model,
                        const StreamSet& streams, ParallelRunInfo* info);
};

}  // namespace affinity

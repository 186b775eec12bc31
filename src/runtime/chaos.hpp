// chaos.hpp — the chaos harness: drive an engine with deterministic frame
// faults plus scheduled worker faults, then audit the conservation ledger.
//
// The harness owns the full accounting chain:
//
//   generated == injector.emitted + injector.dropped - injector.duplicates
//   injector.emitted == engine.submitted + engine.rejected
//   engine.submitted == delivered + Σ dropped_by_reason + dropped_oldest
//                       + Σ evicted_inflight
//
// (engine.rejected includes rejected_shed, the flow table's load-shedding
// refusals; evicted_inflight are frames orphaned in-queue by a flow
// eviction — see runtime/engine.hpp and docs/ROBUSTNESS.md.)
//
// A run "conserves" iff every link holds exactly at shutdown — no frame is
// ever lost without a counter naming why. Used by tools/chaos_soak and the
// chaos/determinism tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/fault_injector.hpp"
#include "util/config.hpp"
#include "workload/adversary.hpp"

namespace affinity {

/// Which engine paradigm to run under chaos. kDispatch runs DispatchEngine
/// with kStreamHash placement — the target for the NIC-mode and stealing
/// knobs in EngineOptions (engine.nic / engine.steal in the INI).
enum class EngineKind : std::uint8_t { kLocking, kIps, kDispatch };

const char* engineKindName(EngineKind k) noexcept;

/// One chaos scenario. Loadable from an INI [chaos] section.
struct ChaosConfig {
  std::uint64_t seed = 1;
  std::uint64_t frames = 100'000;  ///< frames generated (before faults)
  unsigned workers = 4;
  std::uint32_t streams = 16;
  FaultRates faults;
  EngineOptions engine;  ///< watchdog enabled by default for chaos runs

  /// Adversarial stream-selection pattern (workload/adversary.hpp). The
  /// harness overrides .streams and .seed from this config, and resolves
  /// collision_buckets = workers when left 0; kNone keeps the historical
  /// round-robin traffic bit-for-bit.
  AdversaryOptions adversary;

  // Scheduled worker faults (submit-index triggers; 0 = disabled).
  std::uint64_t kill_at = 0;
  unsigned kill_worker = 0;
  std::uint64_t stall_at = 0;
  unsigned stall_worker = 0;
  std::chrono::milliseconds stall_duration{1200};

  /// Optional metrics registry (not owned): the run exports the engine
  /// ledger and fault counts under "chaos.<engine>." at shutdown. Worker
  /// frame spans / fault instants additionally flow to the process-global
  /// TraceSession when one is active (see tools/chaos_soak --trace-out).
  obs::MetricsRegistry* metrics = nullptr;

  ChaosConfig() {
    engine.watchdog = true;
    engine.watchdog_interval = std::chrono::milliseconds(2);
    // Comfortably above worst-case scheduling gaps on oversubscribed or
    // sanitizer-instrumented hosts (TSan serializes threads), so only the
    // *injected* stall — which lasts longer than this — trips the watchdog.
    engine.stall_timeout = std::chrono::milliseconds(400);
  }
};

/// Outcome of a chaos run plus the audited ledger.
struct ChaosReport {
  EngineKind kind = EngineKind::kLocking;
  std::uint64_t generated = 0;  ///< frames produced by the corpus
  FaultCounts faults;           ///< what the injector did
  EngineStats stats;            ///< engine counters after stop()
  bool intake_balanced = false; ///< emitted == submitted + rejected
  bool conserved = false;       ///< intake_balanced && stats.conserved()

  /// Multi-line human-readable ledger.
  [[nodiscard]] std::string describe() const;
};

/// Runs one chaos scenario to completion (engine stopped, ledger audited).
ChaosReport runChaos(EngineKind kind, const ChaosConfig& config);

/// Reads a ChaosConfig from a ConfigFile's [chaos] + [engine] sections
/// (absent keys keep their defaults); nullopt (with `error` naming the key)
/// for an out-of-range count or duration or an unknown enum spelling.
std::optional<ChaosConfig> loadChaosConfig(const ConfigFile& file, std::string* error = nullptr);

}  // namespace affinity

// exec_time.hpp — packet execution time as a reload transient.
//
// The paper models packet processing time as the linear interpolation of the
// maximum reload transient (the Squillante–Lazowska D + R·C form), applied
// per cache level:
//
//     t(x) = t_warm + F1(x)·ΔL1 + F2(x)·ΔL2,     t_cold = t_warm + ΔL1 + ΔL2
//
// where t_warm, and the L1/L2 reload transients ΔL1/ΔL2, are *measured*
// (paper §4: controlled cache-state experiments on the SGI Challenge; here:
// the trace-driven cachesim measurement harness, bench/tab1_exec_times).
// The paper quotes t_cold = 284.3 µs for receive-side UDP/IP/FDDI.
//
// For the scheduling policies the footprint is decomposed into components
// with separate affinity bookkeeping (DESIGN.md §2): shared code, writable
// shared stack data, and per-stream state. Each component ages independently
// (time since it was last present on the executing processor; +inf if it was
// last used on a different processor).
#pragma once

#include <limits>
#include <memory>

#include "cache/flush.hpp"
#include "cache/reuse.hpp"

namespace affinity {

/// Which displacement model drives the reload transients: the paper's
/// fitted SST power law or the measured reuse-distance profiles
/// (`cache.model = sst | reuse` in scenario files).
enum class CacheModelKind { kSst, kReuse };

/// Measured reload-transient scalars (microseconds).
struct ReloadParams {
  double t_warm_us = 135.7;  ///< everything cached on this processor
  double dl1_us = 48.6;      ///< full L1 reload transient (L1 cold, L2 warm)
  double dl2_us = 100.0;     ///< full private-L2 reload transient
  /// Full shared-LLC reload transient. 0 (the 1995 default) means the
  /// hierarchy has no shared level and every formula reduces exactly to the
  /// paper's two-level t(x) = t_warm + F1·ΔL1 + F2·ΔL2.
  double dl3_us = 0.0;

  /// Fully-cold packet time; the paper's measured value is 284.3 µs.
  [[nodiscard]] double tCold() const noexcept { return t_warm_us + dl1_us + dl2_us + dl3_us; }

  /// Re-expresses a two-level parameter set on a shared-LLC hierarchy by
  /// splitting the memory-refill transient ΔL2 into a private-L2 part and a
  /// shared-LLC part, preserving tCold. `llc_share` is the fraction of the
  /// old ΔL2 that becomes ΔL3 (an LLC hit refetches from the LLC instead of
  /// memory, so the LLC inherits the bulk of the old memory transient).
  [[nodiscard]] ReloadParams splitForSharedLlc(double llc_share = 0.6) const noexcept {
    ReloadParams r = *this;
    r.dl3_us = dl2_us * llc_share;
    r.dl2_us = dl2_us * (1.0 - llc_share);
    return r;
  }

  /// Defaults for the receive-side UDP/IP/FDDI fast path, chosen to match
  /// the paper's quoted t_cold = 284.3 µs; regenerate from the cache
  /// simulator with bench/tab1_exec_times.
  static ReloadParams measuredUdpReceive() noexcept { return ReloadParams{}; }

  /// Send-side processing (paper extension i): slightly cheaper warm path,
  /// smaller data footprint.
  static ReloadParams measuredUdpSend() noexcept { return ReloadParams{118.0, 41.0, 83.0}; }

  /// TCP/IP/FDDI receive path. The paper (citing Kay & Pasquale) notes that
  /// TCP-specific processing accounts for at most ~15% of packet execution
  /// time and that the UDP/TCP overhead breakdowns are very similar — so the
  /// TCP parameters are the UDP ones scaled by 15% on the warm path with a
  /// modestly larger state footprint (the TCP PCB dwarfs the UDP one).
  static ReloadParams measuredTcpReceive() noexcept { return ReloadParams{156.1, 53.5, 110.0}; }
};

/// Footprint decomposition: fractions of each reload transient attributable
/// to each component. The per-level split matters: the protocol *text*
/// (code) is the largest region and dominates the memory-refill transient
/// ΔL2, while the per-stream session state — re-referenced on every packet —
/// dominates the small, fast-cycling L1 transient ΔL1. This is what creates
/// the paper's policy crossovers: at low rate concentrating work (MRU) keeps
/// the big shared code L2-warm; at high rate code is warm everywhere and
/// wiring streams/stacks to processors protects the L1-heavy stream state.
/// Each triplet must be nonnegative and sum to 1.
struct FootprintShares {
  double l1_code = 0.30;    ///< share of ΔL1 from code + read-only data
  double l1_shared = 0.20;  ///< share of ΔL1 from writable shared stack data
  double l1_stream = 0.50;  ///< share of ΔL1 from per-stream PCB/session state
  double l2_code = 0.65;    ///< share of ΔL2 from code + read-only data
  double l2_shared = 0.15;  ///< share of ΔL2 from writable shared stack data
  double l2_stream = 0.20;  ///< share of ΔL2 from per-stream PCB/session state

  // Each protocol profile's shares, paired with the ReloadParams::measured*
  // factory of the same name.

  /// Receive-side UDP/IP/FDDI: the defaults above.
  static FootprintShares measuredUdpReceive() noexcept { return FootprintShares{}; }

  /// Send path: relatively more code, less per-stream state than receive.
  static FootprintShares measuredUdpSend() noexcept {
    return {.l1_code = 0.40, .l1_shared = 0.20, .l1_stream = 0.40,
            .l2_code = 0.70, .l2_shared = 0.15, .l2_stream = 0.15};
  }

  /// TCP receive path: heavier per-connection state than UDP (the TCP PCB
  /// is large).
  static FootprintShares measuredTcpReceive() noexcept {
    return {.l1_code = 0.26, .l1_shared = 0.18, .l1_stream = 0.56,
            .l2_code = 0.60, .l2_shared = 0.14, .l2_stream = 0.26};
  }

  [[nodiscard]] bool valid() const noexcept {
    const auto ok = [](double a, double b, double c) {
      const double sum = a + b + c;
      return a >= 0 && b >= 0 && c >= 0 && sum > 0.999 && sum < 1.001;
    };
    return ok(l1_code, l1_shared, l1_stream) && ok(l2_code, l2_shared, l2_stream);
  }
};

/// Sentinel age for a component whose last use was on another processor.
inline constexpr double kColdAge = std::numeric_limits<double>::infinity();

/// Ages (µs since last resident on the executing processor) of the three
/// footprint components. kColdAge means "never / last used elsewhere".
///
/// The `*_any` fields are the shared-LLC counterparts: time since the
/// component was last touched on *any* processor — a migrated footprint is
/// cold in the private levels but still warm in the shared LLC. They
/// default to kColdAge ("no better information"), so the effective L3 age
/// min(local, any) degrades to the local age and two-level behavior is
/// unchanged when callers don't populate them.
struct CacheStateAges {
  double code = 0.0;
  double shared = 0.0;
  double stream = 0.0;
  double code_any = kColdAge;
  double shared_any = kColdAge;
  double stream_any = kColdAge;
};

/// Combines the flush model, measured reload scalars and footprint shares
/// into the per-packet service-time function used by the simulator.
class ExecTimeModel {
 public:
  ExecTimeModel(FlushModel flush, ReloadParams reload, FootprintShares shares);

  /// Reuse-distance variant: the same service-time structure with the SST
  /// power-law displacement replaced by the measured RdCacheModel curves
  /// (and, when the machine has a shared LLC, a third reload level).
  ExecTimeModel(std::shared_ptr<const RdCacheModel> rd, ReloadParams reload,
                FootprintShares shares);

  /// Reload cost F1(x)·ΔL1 + F2(x)·ΔL2 (+ F3(x)·ΔL3) for one fully-aged
  /// footprint; reload(0) = 0, reload(kColdAge) = ΔL1 + ΔL2 + ΔL3.
  [[nodiscard]] double reload(double age_us) const noexcept;

  /// Packet execution time given per-component ages (no fixed overheads).
  [[nodiscard]] double serviceTime(const CacheStateAges& ages) const noexcept;

  /// Breakdown of serviceTime(): warm base plus the per-level reload
  /// portions (µs). `base + l1 + l2 + l3 == serviceTime(ages)`. The L2+L3
  /// portion is the memory-bus traffic a packet generates — used by the
  /// bus-contention model. `l3` is 0 unless ΔL3 > 0 (shared-LLC topology).
  struct ServiceParts {
    double base = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double l3 = 0.0;
    [[nodiscard]] double total() const noexcept { return base + l1 + l2 + l3; }
  };
  [[nodiscard]] ServiceParts serviceParts(const CacheStateAges& ages) const noexcept;

  /// Kind-dispatched per-level flush fractions (0 at age 0, 1 at kColdAge).
  /// The predictor uses these instead of reaching into flush() so it works
  /// under either displacement model.
  [[nodiscard]] double f1At(double age_us) const noexcept;
  [[nodiscard]] double f2At(double age_us) const noexcept;
  /// Shared-LLC flush fraction; 0 whenever ΔL3 == 0. Unlike f1/f2 this is
  /// NOT forced to 1 at kColdAge: a footprint cold on this processor can
  /// still be warm in the shared LLC, so the caller passes the *anywhere*
  /// age here.
  [[nodiscard]] double f3At(double age_us) const noexcept;

  [[nodiscard]] double tWarm() const noexcept { return reload_.t_warm_us; }
  [[nodiscard]] double tCold() const noexcept { return reload_.tCold(); }
  [[nodiscard]] const FootprintShares& shares() const noexcept { return shares_; }
  [[nodiscard]] const FlushModel& flush() const noexcept { return flush_; }
  [[nodiscard]] const ReloadParams& reloadParams() const noexcept { return reload_; }
  [[nodiscard]] CacheModelKind kind() const noexcept { return kind_; }
  /// Non-null iff kind() == kReuse.
  [[nodiscard]] const RdCacheModel* reuseModel() const noexcept { return rd_.get(); }
  [[nodiscard]] const MachineParams& machineParams() const noexcept {
    return rd_ ? rd_->machine() : flush_.machine();
  }

  /// Standard model of the paper's platform and measured parameters.
  static ExecTimeModel standard() {
    return ExecTimeModel(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                         ReloadParams::measuredUdpReceive(), FootprintShares{});
  }

 private:
  FlushModel flush_;
  std::shared_ptr<const RdCacheModel> rd_;  ///< set iff kind_ == kReuse
  CacheModelKind kind_ = CacheModelKind::kSst;
  ReloadParams reload_;
  FootprintShares shares_;
};

}  // namespace affinity

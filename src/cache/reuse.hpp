// reuse.hpp — reuse-distance cache model (ROADMAP item 4).
//
// The SST flush model (cache/flush.hpp) summarizes the displacing workload
// with a fitted 1985 power law. This file replaces that summary with
// *measured* locality: a reuse-distance (LRU stack distance) histogram and a
// footprint curve u(n) captured from the trace-driven cachesim
// (cachesim/rd_capture.hpp), following the profile-based shared-cache
// construction of Saeed & Falakniyaz (arXiv:1907.12666):
//
//   * RdHistogram    — distribution of stack distances (in unique lines).
//     For a fully-associative LRU cache of C lines an access hits iff its
//     reuse distance is < C, so the histogram converts directly into a
//     miss-ratio curve; for A-way set-associative caches the conversion
//     applies the same Poisson set-conflict correction the SST model uses
//     (Smith's formula: the d intervening distinct lines land uniformly in
//     S sets; the access hits iff fewer than A of them map to its set).
//   * FootprintCurve — u(n): expected distinct lines touched in n
//     consecutive references. The measured analogue of the SST u(R, L).
//   * RdProfile      — one workload's capture: per-stream histograms (I /
//     D / unified) plus footprint curves at both line granularities, with a
//     compact deterministic text serialization (byte-identical across
//     capture job counts — guarded by rd_model_test).
//   * RdCacheModel   — the pluggable alternative to FlushModel: private
//     L1/L2 flush fractions from the background's measured footprint, a
//     shared-LLC displacement curve driven by *all* co-runners' combined
//     traffic, and the LLC occupancy fixed point that partitions shared
//     space among co-running reference streams by their footprint curves.
//
// ExecTimeModel selects between the SST and reuse models via CacheModelKind
// (`cache.model = sst | reuse` in scenario files); every prediction this
// model makes is pinned differentially against the trace cachesim in
// tests/rd_model_test.cpp before any figure relies on it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/flush.hpp"
#include "cache/machine.hpp"

namespace affinity {

/// Histogram of LRU stack distances, in unique lines. Distances below
/// kExactMax occupy one bucket each (exact accounting for the micro-trace
/// property tests); larger distances share geometric buckets with
/// kSubPerOctave subdivisions per power of two.
class RdHistogram {
 public:
  static constexpr std::uint64_t kExactMax = 64;
  static constexpr unsigned kSubPerOctave = 8;
  static constexpr unsigned kOctave0 = 6;  // log2(kExactMax)
  static constexpr unsigned kMaxOctave = 48;
  static constexpr unsigned kBuckets =
      static_cast<unsigned>(kExactMax) + (kMaxOctave - kOctave0) * kSubPerOctave;

  /// Records one access with finite reuse distance `d` (0 = immediate
  /// re-reference of the most recent line).
  void add(std::uint64_t d) noexcept;
  /// Records a first-touch access (infinite distance: a compulsory miss).
  void addCold() noexcept { ++cold_; }

  [[nodiscard]] std::uint64_t total() const noexcept { return finite_ + cold_; }
  [[nodiscard]] std::uint64_t cold() const noexcept { return cold_; }
  [[nodiscard]] std::uint64_t finite() const noexcept { return finite_; }

  /// Accesses with reuse distance < `capacity_lines` — the hits a
  /// fully-associative LRU cache of that size would serve. Monotone
  /// non-decreasing in capacity; exact for distances < kExactMax, linear
  /// interpolation within a geometric bucket above.
  [[nodiscard]] double hitsFullyAssoc(double capacity_lines) const noexcept;

  /// 1 - hitsFullyAssoc/total (1.0 for an empty histogram: every access of
  /// an empty stream is vacuously a miss). Monotone non-increasing in
  /// capacity.
  [[nodiscard]] double missRatioFullyAssoc(double capacity_lines) const noexcept;

  /// Set-associative miss ratio under Smith's uniform-mapping correction:
  /// P(miss | d) = P(Poisson(d / sets) >= assoc), averaged over the
  /// histogram; cold accesses always miss.
  [[nodiscard]] double missRatio(const CacheLevelParams& level) const noexcept;

  void merge(const RdHistogram& other) noexcept;

  [[nodiscard]] static unsigned bucketOf(std::uint64_t d) noexcept;
  [[nodiscard]] static std::uint64_t bucketLo(unsigned b) noexcept;
  [[nodiscard]] static std::uint64_t bucketHi(unsigned b) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }

  // Deterministic compact form: "cold <n> ; <bucket>:<count> ...", sparse,
  // ascending bucket index.
  void serialize(std::string* out) const;
  [[nodiscard]] bool deserialize(const std::string& line);

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t finite_ = 0;
  std::uint64_t cold_ = 0;
};

/// Sampled footprint function u(n): expected distinct lines in n
/// consecutive references, captured at geometrically spaced checkpoints.
/// Beyond the captured range the curve extrapolates with the power law
/// fitted to the last sampled decade, clamped at `cap_lines` (the
/// workload's total distinct lines) — the measured analogue of SST's
/// u(R, L) = W L^a R^b d^(log L log R). The tail exponent is refitted
/// whenever a sample is added, so a lookup is one binary search.
class FootprintCurve {
 public:
  /// Appends a checkpoint; `refs` must exceed the last sample's.
  void addSample(std::uint64_t refs, std::uint64_t lines);
  void setCap(std::uint64_t cap_lines) noexcept { cap_lines_ = cap_lines; }

  /// Distinct lines expected in `refs` references (interpolated/extrapolated).
  [[nodiscard]] double lines(double refs) const noexcept;
  /// Inverse: references needed to touch `lines` distinct lines (bisection;
  /// returns +inf past the cap).
  [[nodiscard]] double refsFor(double lines) const noexcept;

  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] std::uint64_t capLines() const noexcept { return cap_lines_; }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples()
      const noexcept {
    return samples_;
  }

  void serialize(std::string* out) const;
  [[nodiscard]] bool deserialize(const std::string& line);

 private:
  void fitTail() noexcept;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_;  // (refs, lines) ascending
  std::uint64_t cap_lines_ = 0;  // 0 = uncapped
  double tail_expo_ = 0.0;       // power-law exponent past the last sample
};

/// One workload's reuse-distance capture. Histograms are split the way the
/// hierarchy splits the reference stream: instruction fetches (L1I), data
/// references (L1D), and the unified stream at the L2 line granularity.
struct RdProfile {
  std::string name = "unnamed";
  std::uint32_t l1_line_bytes = 32;
  std::uint32_t l2_line_bytes = 128;
  std::uint64_t total_refs = 0;
  std::uint64_t ifetch_refs = 0;

  RdHistogram ifetch;   ///< I-stream distances at L1 line granularity
  RdHistogram data;     ///< D-stream distances at L1 line granularity
  RdHistogram unified;  ///< all references at L2 line granularity

  FootprintCurve fp_l1;  ///< distinct L1-lines vs references (whole stream)
  FootprintCurve fp_l2;  ///< distinct L2-lines vs references

  [[nodiscard]] double ifetchFraction() const noexcept {
    return total_refs ? static_cast<double>(ifetch_refs) / static_cast<double>(total_refs) : 0.0;
  }

  /// Deterministic text form ("rd-profile v1" header); byte-identical for
  /// identical captures whatever the capture parallelism.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<RdProfile> deserialize(const std::string& text,
                                                            std::string* error = nullptr);
  [[nodiscard]] bool saveFile(const std::string& path) const;
  [[nodiscard]] static std::optional<RdProfile> loadFile(const std::string& path,
                                                         std::string* error = nullptr);
};

/// The reuse-distance flush/occupancy model: drop-in alternative to the SST
/// FlushModel, parameterized by a protocol profile, a background profile,
/// and the number of symmetric co-runners sharing the LLC (processors each
/// running the same protocol + background mix).
class RdCacheModel {
 public:
  RdCacheModel(MachineParams machine, RdProfile protocol, RdProfile background,
               unsigned co_runners = 1, double protocol_duty = 0.5);

  /// Fraction of the protocol footprint displaced from the private L1D
  /// after `x_us` of local background execution (measured-footprint
  /// analogue of FlushModel::f1).
  [[nodiscard]] double f1(double x_us) const noexcept;
  /// Same for the private L2.
  [[nodiscard]] double f2(double x_us) const noexcept;
  /// Fraction displaced from the *shared* LLC after `x_us` during which all
  /// co-runners kept issuing (their background plus their protocol work).
  /// 0 when the machine has no shared LLC.
  [[nodiscard]] double f3(double x_us) const noexcept;

  // --- per-level global miss-ratio predictions (misses / total references),
  //     the quantities the differential battery pins against the cachesim --
  [[nodiscard]] double l1iGlobalMissRatio() const noexcept;
  [[nodiscard]] double l1dGlobalMissRatio() const noexcept;
  [[nodiscard]] double l2GlobalMissRatio() const noexcept;
  /// LLC miss ratio at this protocol stream's solved occupancy share
  /// (fully-associative conversion — modern LLCs are 16-way).
  [[nodiscard]] double llcGlobalMissRatio() const noexcept;

  /// Protocol footprint, in L2-granularity lines (its total distinct lines).
  [[nodiscard]] double protoLinesL2() const noexcept;
  /// The protocol stream's solved share of the shared LLC, in lines
  /// (= protoLinesL2 when everything fits). 0 when no LLC.
  [[nodiscard]] double llcShareLines() const noexcept { return llc_share_lines_; }

  /// Shared-LLC occupancy fixed point (arXiv:1907.12666 construction): find
  /// the window W with sum_i u_i(rate_i * W) = capacity and give stream i
  /// the c_i = u_i(rate_i * W) lines it touches in that window. When the
  /// combined footprints fit, each stream simply keeps its whole footprint.
  /// Returns one occupancy (in lines) per stream.
  [[nodiscard]] static std::vector<double> solveOccupancy(
      double capacity_lines, const std::vector<const FootprintCurve*>& footprints,
      const std::vector<double>& rate_refs_per_us);

  [[nodiscard]] const MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] const RdProfile& protocol() const noexcept { return proto_; }
  [[nodiscard]] const RdProfile& background() const noexcept { return bg_; }
  [[nodiscard]] unsigned coRunners() const noexcept { return co_runners_; }

 private:
  MachineParams machine_;
  RdProfile proto_;
  RdProfile bg_;
  unsigned co_runners_;
  double protocol_duty_;     ///< fraction of each co-runner's refs that are protocol
  double refs_per_us_;
  Displacement l1_;
  Displacement l2_;
  Displacement llc_;         ///< default (unused) when the machine has no LLC
  double llc_share_lines_ = 0.0;  ///< solved at construction
};

}  // namespace affinity

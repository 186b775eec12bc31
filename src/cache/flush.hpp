// flush.hpp — F(x): fraction of the cached protocol footprint displaced by
// intervening non-protocol execution of duration x (paper Appendix).
//
// The u(R,L) unique lines of the intervening workload are assumed to map
// independently and uniformly into the cache's S sets; the per-set count is
// X ~ Binomial(u, 1/S). For a direct-mapped cache a resident line is
// displaced iff X >= 1, so
//
//     F = 1 - (1 - 1/S)^u
//
// and for A-way LRU the displaced fraction is E[min(X, A)] / A
// = (1/A) Σ_{k=1..A} P(X >= k), evaluated with a Poisson(u/S) approximation.
//
// F1 applies u to half the reference stream (split L1 I/D caches, the paper's
// even-split assumption); F2 applies it to the full stream and the L2
// geometry. The protocol footprint is flushed much more slowly from the 1 MB
// L2 than from the 16 KB L1s (paper Fig. 4; bench/fig04_flush_curves).
#pragma once

#include <limits>

#include "cache/footprint.hpp"
#include "cache/machine.hpp"

namespace affinity {

/// Fraction of a cache with `sets` sets and associativity `assoc` displaced
/// by `unique_lines` independently-mapped interfering lines.
double fractionDisplaced(double unique_lines, double sets, unsigned assoc) noexcept;

/// One cache level as fractionDisplaced sees it, with its constants
/// computed once: FlushModel and RdCacheModel keep one per level, so a
/// flush value pays only for the terms that depend on the interfering
/// lines. `fraction(u)` equals fractionDisplaced(u, sets, assoc) bit for
/// bit — it is the same arithmetic on the same values.
struct Displacement {
  double sets = 1.0;
  unsigned assoc = 1;
  /// log1p(-1/sets): log of the chance that one interfering line misses a
  /// given set (read by the direct-mapped form only).
  double log_keep = -std::numeric_limits<double>::infinity();

  Displacement() = default;
  Displacement(double sets, unsigned assoc) noexcept;
  explicit Displacement(const CacheLevelParams& level) noexcept
      : Displacement(static_cast<double>(level.sets()), level.associativity) {}

  [[nodiscard]] double fraction(double unique_lines) const noexcept;
};

/// Per-level flush fractions for a machine under an SST-modelled
/// non-protocol workload. Everything that does not depend on the gap x is
/// computed at construction; the model is immutable afterwards.
class FlushModel {
 public:
  FlushModel(MachineParams machine, SstParams sst) noexcept;

  /// References issued by the intervening workload in `x_us` microseconds.
  [[nodiscard]] double refs(double x_us) const noexcept {
    return x_us > 0.0 ? x_us * refs_per_us_ : 0.0;
  }

  /// Fraction of the footprint flushed from the (data) L1 after x_us of
  /// intervening execution. Uses the D-cache geometry with the non-ifetch
  /// share of the reference stream.
  [[nodiscard]] double f1(double x_us) const noexcept { return flushed(l1_, x_us); }

  /// Fraction flushed from the unified L2 after x_us.
  [[nodiscard]] double f2(double x_us) const noexcept { return flushed(l2_, x_us); }

  /// Fraction flushed from the shared LLC after x_us. 0 when the machine
  /// has no LLC.
  [[nodiscard]] double f3(double x_us) const noexcept {
    return machine_.llc.size_bytes == 0 ? 0.0 : flushed(llc_, x_us);
  }

  [[nodiscard]] const MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] const SstParams& sst() const noexcept { return sst_; }

 private:
  /// One level's share of the reference stream, its footprint law and its
  /// geometry.
  struct Level {
    double ref_share = 1.0;
    SstLevelLaw footprint;
    Displacement geometry;
  };
  [[nodiscard]] Level level(const CacheLevelParams& geometry, double ref_share) const noexcept;
  [[nodiscard]] double flushed(const Level& level, double x_us) const noexcept;

  MachineParams machine_;
  SstParams sst_;
  double refs_per_us_;
  Level l1_;
  Level l2_;
  Level llc_;
};

}  // namespace affinity

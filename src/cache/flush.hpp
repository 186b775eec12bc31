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

#include "cache/footprint.hpp"
#include "cache/machine.hpp"

namespace affinity {

/// Fraction of a cache with `sets` sets and associativity `assoc` displaced
/// by `unique_lines` independently-mapped interfering lines.
double fractionDisplaced(double unique_lines, double sets, unsigned assoc) noexcept;

/// Per-level flush fractions for a machine under an SST-modelled
/// non-protocol workload.
class FlushModel {
 public:
  FlushModel(MachineParams machine, SstParams sst) noexcept
      : machine_(machine), sst_(sst) {}

  /// References issued by the intervening workload in `x_us` microseconds.
  [[nodiscard]] double refs(double x_us) const noexcept {
    return x_us > 0.0 ? x_us * machine_.refsPerMicrosecond() : 0.0;
  }

  /// Fraction of the footprint flushed from the (data) L1 after x_us of
  /// intervening execution. Uses the D-cache geometry with the non-ifetch
  /// share of the reference stream.
  [[nodiscard]] double f1(double x_us) const noexcept;

  /// Fraction flushed from the unified L2 after x_us.
  [[nodiscard]] double f2(double x_us) const noexcept;

  /// Fraction flushed from the shared LLC after x_us. 0 when the machine
  /// has no LLC.
  [[nodiscard]] double f3(double x_us) const noexcept;

  [[nodiscard]] const MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] const SstParams& sst() const noexcept { return sst_; }

 private:
  MachineParams machine_;
  SstParams sst_;
};

}  // namespace affinity

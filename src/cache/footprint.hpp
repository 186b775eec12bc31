// footprint.hpp — the Singh–Stone–Thiebaut footprint function u(R, L).
//
// u(R, L) estimates the number of unique cache lines (line size L bytes)
// touched by R memory references of a workload:
//
//     u(R, L) = W · L^a · R^b · d^(log L · log R)        (paper eq. 2)
//
// The paper models the displacing *non-protocol* workload with the constants
// Singh, Stone and Thiebaut fitted to a 200M-reference multiprogrammed
// IBM/370 MVS trace: W = 2.19827, a = 0.033233, b = 0.827457,
// log d = -0.13025. Logarithms are base-10: with base-10 the fitted
// constants give u ∝ L^(-0.75) at R = 10^6 (sensible spatial locality),
// whereas base-2 drives u to ~0 (see DESIGN.md §2).
#pragma once

namespace affinity {

/// Constants of the SST footprint power law.
struct SstParams {
  double W = 2.19827;
  double a = 0.033233;
  double b = 0.827457;
  double log_d = -0.13025;  ///< log10 of the interaction constant d

  /// The multiprogrammed MVS workload fit used by the paper for the
  /// non-protocol activity.
  static SstParams mvsWorkload() noexcept { return SstParams{}; }
};

/// Paper eq. 2 at one line size, with the terms that depend only on L
/// computed once: log u = (k + b·log R) + c·log R, where k = log W + a·log L
/// and c = log d·log L. FlushModel keeps one per cache level, so a lookup
/// costs one log10 and one pow.
class SstLevelLaw {
 public:
  SstLevelLaw() = default;
  SstLevelLaw(const SstParams& p, double line_bytes) noexcept;

  /// Unique lines touched in `refs` references (see uniqueLines).
  [[nodiscard]] double lines(double refs) const noexcept;

 private:
  double b_ = 0.0;
  double k_ = 0.0;
  double c_ = 0.0;
};

/// Number of unique lines of size `line_bytes` touched in `refs` references.
/// Returns 0 for refs <= 0; clamps at `refs` (a reference stream cannot touch
/// more unique lines than it has references).
double uniqueLines(const SstParams& p, double refs, double line_bytes) noexcept;

/// Inverse-ish helper for tests: references needed to touch `lines` unique
/// lines (bisection on uniqueLines; `lines` must be reachable).
double refsForUniqueLines(const SstParams& p, double lines, double line_bytes) noexcept;

}  // namespace affinity

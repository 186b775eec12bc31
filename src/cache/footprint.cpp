#include "cache/footprint.hpp"

#include <cmath>

namespace affinity {

// C++ evaluates log W + a·log L + b·log R + log d·log L·log R left to right,
// as ((log W + a·log L) + b·log R) + (log d·log L)·log R; k and c are the
// first parenthesis and the last factor, so lines() computes that grouping.
SstLevelLaw::SstLevelLaw(const SstParams& p, double line_bytes) noexcept
    : b_(p.b),
      k_(std::log10(p.W) + p.a * std::log10(line_bytes)),
      c_(p.log_d * std::log10(line_bytes)) {}

double SstLevelLaw::lines(double refs) const noexcept {
  if (refs <= 1.0) return refs > 0.0 ? refs : 0.0;
  const double logR = std::log10(refs);
  const double u = std::pow(10.0, (k_ + b_ * logR) + c_ * logR);
  return u > refs ? refs : u;
}

double uniqueLines(const SstParams& p, double refs, double line_bytes) noexcept {
  return SstLevelLaw(p, line_bytes).lines(refs);
}

double refsForUniqueLines(const SstParams& p, double lines, double line_bytes) noexcept {
  if (lines <= 0.0) return 0.0;
  double lo = 1.0, hi = 1.0;
  while (uniqueLines(p, hi, line_bytes) < lines && hi < 1e18) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (uniqueLines(p, mid, line_bytes) < lines)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace affinity

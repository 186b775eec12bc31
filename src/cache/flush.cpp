#include "cache/flush.hpp"

#include <cmath>

#include "util/check.hpp"

namespace affinity {

double fractionDisplaced(double unique_lines, double sets, unsigned assoc) noexcept {
  return Displacement(sets, assoc).fraction(unique_lines);
}

Displacement::Displacement(double sets_in, unsigned assoc_in) noexcept
    : sets(sets_in), assoc(assoc_in), log_keep(std::log1p(-1.0 / sets_in)) {
  AFF_DCHECK(sets > 0.0 && assoc >= 1);
}

double Displacement::fraction(double unique_lines) const noexcept {
  if (unique_lines <= 0.0) return 0.0;
  if (assoc == 1) {
    // Exact binomial form: P(X >= 1) = 1 - (1 - 1/S)^u.
    return 1.0 - std::exp(unique_lines * log_keep);
  }
  // Poisson approximation: lambda = u / S per set.
  const double lambda = unique_lines / sets;
  // E[min(X, A)] = Σ_{k=1..A} P(X >= k); accumulate survivor function.
  double pmf = std::exp(-lambda);  // P(X = 0)
  double cdf = pmf;
  double expected = 0.0;
  for (unsigned k = 1; k <= assoc; ++k) {
    expected += 1.0 - cdf;  // P(X >= k)
    pmf *= lambda / static_cast<double>(k);
    cdf += pmf;
  }
  const double f = expected / static_cast<double>(assoc);
  return f > 1.0 ? 1.0 : f;
}

FlushModel::FlushModel(MachineParams machine, SstParams sst) noexcept
    : machine_(machine),
      sst_(sst),
      refs_per_us_(machine.refsPerMicrosecond()),
      l1_(level(machine.l1d, 1.0 - machine.ifetch_fraction)),
      l2_(level(machine.l2, 1.0)),
      llc_(machine.llc.size_bytes == 0 ? Level{} : level(machine.llc, 1.0)) {}

FlushModel::Level FlushModel::level(const CacheLevelParams& geometry,
                                    double ref_share) const noexcept {
  return Level{ref_share, SstLevelLaw(sst_, static_cast<double>(geometry.line_bytes)),
               Displacement(geometry)};
}

// Multiplying the L2/LLC reference count by a share of 1.0 is exact.
double FlushModel::flushed(const Level& level, double x_us) const noexcept {
  return level.geometry.fraction(level.footprint.lines(refs(x_us) * level.ref_share));
}

}  // namespace affinity

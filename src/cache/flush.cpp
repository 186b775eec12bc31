#include "cache/flush.hpp"

#include <cmath>

#include "util/check.hpp"

namespace affinity {

double fractionDisplaced(double unique_lines, double sets, unsigned assoc) noexcept {
  AFF_DCHECK(sets > 0.0 && assoc >= 1);
  if (unique_lines <= 0.0) return 0.0;
  if (assoc == 1) {
    // Exact binomial form: P(X >= 1) = 1 - (1 - 1/S)^u.
    return 1.0 - std::exp(unique_lines * std::log1p(-1.0 / sets));
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

double FlushModel::f1(double x_us) const noexcept {
  const double r = refs(x_us) * (1.0 - machine_.ifetch_fraction);
  const double u = uniqueLines(sst_, r, machine_.l1d.line_bytes);
  return fractionDisplaced(u, static_cast<double>(machine_.l1d.sets()),
                           machine_.l1d.associativity);
}

double FlushModel::f2(double x_us) const noexcept {
  const double u = uniqueLines(sst_, refs(x_us), machine_.l2.line_bytes);
  return fractionDisplaced(u, static_cast<double>(machine_.l2.sets()),
                           machine_.l2.associativity);
}

double FlushModel::f3(double x_us) const noexcept {
  if (machine_.llc.size_bytes == 0) return 0.0;
  const double u = uniqueLines(sst_, refs(x_us), machine_.llc.line_bytes);
  return fractionDisplaced(u, static_cast<double>(machine_.llc.sets()),
                           machine_.llc.associativity);
}

}  // namespace affinity

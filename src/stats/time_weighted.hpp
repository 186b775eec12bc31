// time_weighted.hpp — time-averaged piecewise-constant quantities.
//
// Used for queue lengths and busy-processor counts: the estimator integrates
// the level over simulated time.
#pragma once

namespace affinity {

/// Time average of a piecewise-constant signal. Call set(t, level) at each
/// change; average(t_end) integrates up to t_end.
class TimeWeighted {
 public:
  /// Records that the signal changed to `level` at time `t` (non-decreasing).
  void set(double t, double level) noexcept;

  /// Adds `delta` to the current level at time `t`.
  void adjust(double t, double delta) noexcept { set(t, level_ + delta); }

  [[nodiscard]] double level() const noexcept { return level_; }

  /// Highest level seen since the start (or since the last resetAt).
  [[nodiscard]] double maxLevel() const noexcept { return max_level_; }

  /// Time average over [start, t_end] where `start` was the first set() time
  /// (or 0 if resetAt was used).
  [[nodiscard]] double average(double t_end) const noexcept;

  /// Discards accumulated area and restarts integration at time `t`
  /// (used to discard the warmup transient).
  void resetAt(double t) noexcept;

 private:
  double level_ = 0.0;
  double last_t_ = 0.0;
  double start_t_ = 0.0;
  double area_ = 0.0;
  double max_level_ = 0.0;
  bool started_ = false;
};

}  // namespace affinity

#include "stats/time_weighted.hpp"

namespace affinity {

void TimeWeighted::set(double t, double level) noexcept {
  if (!started_) {
    started_ = true;
    start_t_ = t;
  } else if (t > last_t_) {
    area_ += level_ * (t - last_t_);
  }
  last_t_ = t;
  level_ = level;
  if (level > max_level_) max_level_ = level;
}

double TimeWeighted::average(double t_end) const noexcept {
  if (!started_ || t_end <= start_t_) return 0.0;
  double area = area_;
  if (t_end > last_t_) area += level_ * (t_end - last_t_);
  return area / (t_end - start_t_);
}

void TimeWeighted::resetAt(double t) noexcept {
  area_ = 0.0;
  max_level_ = level_;
  start_t_ = t;
  if (t > last_t_) last_t_ = t;
}

}  // namespace affinity

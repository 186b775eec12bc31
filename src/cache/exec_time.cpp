#include "cache/exec_time.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace affinity {

ExecTimeModel::ExecTimeModel(FlushModel flush, ReloadParams reload, FootprintShares shares)
    : flush_(flush), kind_(CacheModelKind::kSst), reload_(reload), shares_(shares) {
  AFF_CHECK(shares_.valid());
  AFF_CHECK(reload_.t_warm_us > 0.0 && reload_.dl1_us >= 0.0 && reload_.dl2_us >= 0.0 &&
            reload_.dl3_us >= 0.0);
}

ExecTimeModel::ExecTimeModel(std::shared_ptr<const RdCacheModel> rd, ReloadParams reload,
                             FootprintShares shares)
    : flush_(FlushModel(rd->machine(), SstParams::mvsWorkload())),
      rd_(std::move(rd)),
      kind_(CacheModelKind::kReuse),
      reload_(reload),
      shares_(shares) {
  AFF_CHECK(shares_.valid());
  AFF_CHECK(reload_.t_warm_us > 0.0 && reload_.dl1_us >= 0.0 && reload_.dl2_us >= 0.0 &&
            reload_.dl3_us >= 0.0);
}

double ExecTimeModel::f1At(double age_us) const noexcept {
  if (age_us <= 0.0) return 0.0;
  if (age_us == kColdAge) return 1.0;
  return kind_ == CacheModelKind::kSst ? flush_.f1(age_us) : rd_->f1(age_us);
}

double ExecTimeModel::f2At(double age_us) const noexcept {
  if (age_us <= 0.0) return 0.0;
  if (age_us == kColdAge) return 1.0;
  return kind_ == CacheModelKind::kSst ? flush_.f2(age_us) : rd_->f2(age_us);
}

double ExecTimeModel::f3At(double age_us) const noexcept {
  if (reload_.dl3_us <= 0.0 || age_us <= 0.0) return 0.0;
  if (age_us == kColdAge) return 1.0;
  return kind_ == CacheModelKind::kSst ? flush_.f3(age_us) : rd_->f3(age_us);
}

double ExecTimeModel::reload(double age_us) const noexcept {
  if (age_us <= 0.0) return 0.0;
  if (age_us == kColdAge) return reload_.dl1_us + reload_.dl2_us + reload_.dl3_us;
  double r = f1At(age_us) * reload_.dl1_us + f2At(age_us) * reload_.dl2_us;
  if (reload_.dl3_us > 0.0) r += f3At(age_us) * reload_.dl3_us;
  return r;
}

ExecTimeModel::ServiceParts ExecTimeModel::serviceParts(
    const CacheStateAges& ages) const noexcept {
  const double l1 = shares_.l1_code * f1At(ages.code) +
                    shares_.l1_shared * f1At(ages.shared) +
                    shares_.l1_stream * f1At(ages.stream);
  const double l2 = shares_.l2_code * f2At(ages.code) +
                    shares_.l2_shared * f2At(ages.shared) +
                    shares_.l2_stream * f2At(ages.stream);
  double l3 = 0.0;
  if (reload_.dl3_us > 0.0) {
    // The shared LLC doesn't care which processor last touched a component:
    // its age is the time since the last touch *anywhere*. The local age is
    // still an upper bound on warmth (a component re-referenced here was
    // re-referenced somewhere), so take the min — with the default
    // *_any == kColdAge this degrades to the local age.
    const double code_age = std::min(ages.code, ages.code_any);
    const double shared_age = std::min(ages.shared, ages.shared_any);
    const double stream_age = std::min(ages.stream, ages.stream_any);
    // Reuse the L2 share split: the same components refill through the LLC.
    l3 = shares_.l2_code * f3At(code_age) + shares_.l2_shared * f3At(shared_age) +
         shares_.l2_stream * f3At(stream_age);
  }
  return ServiceParts{reload_.t_warm_us, l1 * reload_.dl1_us, l2 * reload_.dl2_us,
                      l3 * reload_.dl3_us};
}

double ExecTimeModel::serviceTime(const CacheStateAges& ages) const noexcept {
  return serviceParts(ages).total();
}

}  // namespace affinity

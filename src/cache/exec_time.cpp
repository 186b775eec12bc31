#include "cache/exec_time.hpp"

#include <algorithm>
#include <array>
#include <utility>

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

namespace {

// f at three component ages, evaluated once per distinct age. f is a pure
// function of the age, so reusing its value for an equal age is exact.
// Only IPS's stream == shared (one stack age for both) holds by
// construction. The others follow the traffic: Locking's shared data has
// one last toucher, so shared == code when this processor finished the
// latest packet; a stream or stack last served here at this processor's
// latest completion shares the code age; ages last set elsewhere are all
// kColdAge. The measured hit rates are in docs/MODEL.md.
template <class F>
auto perDistinctAge(double code, double shared, double stream, F f) {
  using R = decltype(f(code));
  const R at_code = f(code);
  const R at_shared = shared == code ? at_code : f(shared);
  const R at_stream = stream == shared ? at_shared : stream == code ? at_code : f(stream);
  return std::array<R, 3>{at_code, at_shared, at_stream};
}

}  // namespace

ExecTimeModel::ServiceParts ExecTimeModel::serviceParts(
    const CacheStateAges& ages) const noexcept {
  const auto [code, shared, stream] =
      perDistinctAge(ages.code, ages.shared, ages.stream,
                     [this](double age) { return std::pair{f1At(age), f2At(age)}; });
  const double l1 = shares_.l1_code * code.first + shares_.l1_shared * shared.first +
                    shares_.l1_stream * stream.first;
  const double l2 = shares_.l2_code * code.second + shares_.l2_shared * shared.second +
                    shares_.l2_stream * stream.second;
  double l3 = 0.0;
  if (reload_.dl3_us > 0.0) {
    // The shared LLC doesn't care which processor last touched a component:
    // its age is the time since the last touch *anywhere*. The local age is
    // still an upper bound on warmth (a component re-referenced here was
    // re-referenced somewhere), so take the min — with the default
    // *_any == kColdAge this degrades to the local age.
    const auto [code3, shared3, stream3] = perDistinctAge(
        std::min(ages.code, ages.code_any), std::min(ages.shared, ages.shared_any),
        std::min(ages.stream, ages.stream_any), [this](double age) { return f3At(age); });
    // Reuse the L2 share split: the same components refill through the LLC.
    l3 = shares_.l2_code * code3 + shares_.l2_shared * shared3 + shares_.l2_stream * stream3;
  }
  return ServiceParts{reload_.t_warm_us, l1 * reload_.dl1_us, l2 * reload_.dl2_us,
                      l3 * reload_.dl3_us};
}

double ExecTimeModel::serviceTime(const CacheStateAges& ages) const noexcept {
  return serviceParts(ages).total();
}

}  // namespace affinity

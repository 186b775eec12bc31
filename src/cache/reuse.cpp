#include "cache/reuse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace affinity {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// P(hit | reuse distance d) for a cache with `sets` sets and `assoc` ways
/// under uniform independent set mapping of the d intervening lines. Exact
/// binomial survivor for direct-mapped (mirrors fractionDisplaced); Poisson
/// otherwise.
double pHitAtDistance(double d, double sets, unsigned assoc) noexcept {
  if (d <= 0.0) return 1.0;
  if (assoc == 1) {
    return std::exp(d * std::log1p(-1.0 / sets));  // (1 - 1/S)^d
  }
  const double lambda = d / sets;
  double pmf = std::exp(-lambda);
  double p_hit = 0.0;
  for (unsigned k = 0; k < assoc; ++k) {
    p_hit += pmf;
    pmf *= lambda / static_cast<double>(k + 1);
  }
  return p_hit > 1.0 ? 1.0 : p_hit;
}

void appendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// RdHistogram

unsigned RdHistogram::bucketOf(std::uint64_t d) noexcept {
  if (d < kExactMax) return static_cast<unsigned>(d);
  unsigned octave = 63u - static_cast<unsigned>(__builtin_clzll(d));
  if (octave >= kMaxOctave) octave = kMaxOctave - 1;
  const std::uint64_t lo = std::uint64_t{1} << octave;
  const std::uint64_t width = lo / kSubPerOctave;  // >= 8 for octave >= 6
  const unsigned sub = static_cast<unsigned>((d - lo) / width);
  return static_cast<unsigned>(kExactMax) + (octave - kOctave0) * kSubPerOctave + sub;
}

std::uint64_t RdHistogram::bucketLo(unsigned b) noexcept {
  if (b < kExactMax) return b;
  const unsigned rel = b - static_cast<unsigned>(kExactMax);
  const unsigned octave = kOctave0 + rel / kSubPerOctave;
  const unsigned sub = rel % kSubPerOctave;
  const std::uint64_t base = std::uint64_t{1} << octave;
  return base + sub * (base / kSubPerOctave);
}

std::uint64_t RdHistogram::bucketHi(unsigned b) noexcept {
  if (b < kExactMax) return b;
  if (b + 1 >= kBuckets) return std::numeric_limits<std::uint64_t>::max();
  return bucketLo(b + 1) - 1;
}

void RdHistogram::add(std::uint64_t d) noexcept {
  ++buckets_[bucketOf(d)];
  ++finite_;
}

double RdHistogram::hitsFullyAssoc(double capacity_lines) const noexcept {
  if (capacity_lines <= 0.0) return 0.0;
  double hits = 0.0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0) continue;
    const double lo = static_cast<double>(bucketLo(b));
    if (capacity_lines <= lo) break;  // buckets are ascending; the rest miss
    const double width = static_cast<double>(bucketHi(b)) - lo + 1.0;
    const double frac = (capacity_lines - lo) / width;
    hits += static_cast<double>(n) * (frac < 1.0 ? frac : 1.0);
  }
  return hits;
}

double RdHistogram::missRatioFullyAssoc(double capacity_lines) const noexcept {
  const std::uint64_t t = total();
  if (t == 0) return 1.0;
  return 1.0 - hitsFullyAssoc(capacity_lines) / static_cast<double>(t);
}

double RdHistogram::missRatio(const CacheLevelParams& level) const noexcept {
  const std::uint64_t t = total();
  if (t == 0) return 1.0;
  if (level.associativity >= 1 && level.lines() > 0 &&
      level.sets() == 1) {
    // Fully associative: the stack property is exact; skip the mapping model.
    return missRatioFullyAssoc(static_cast<double>(level.lines()));
  }
  const double sets = static_cast<double>(level.sets());
  double hits = 0.0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets_[b];
    if (n == 0) continue;
    const double lo = static_cast<double>(bucketLo(b));
    const double hi = static_cast<double>(bucketHi(b));
    const double rep = b < kExactMax ? lo : 0.5 * (lo + hi);
    hits += static_cast<double>(n) * pHitAtDistance(rep, sets, level.associativity);
  }
  return 1.0 - hits / static_cast<double>(t);
}

void RdHistogram::merge(const RdHistogram& other) noexcept {
  for (unsigned b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  finite_ += other.finite_;
  cold_ += other.cold_;
}

void RdHistogram::serialize(std::string* out) const {
  out->append("cold ");
  appendU64(out, cold_);
  out->append(" ;");
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    out->push_back(' ');
    appendU64(out, b);
    out->push_back(':');
    appendU64(out, buckets_[b]);
  }
}

bool RdHistogram::deserialize(const std::string& line) {
  *this = RdHistogram{};
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "cold") return false;
  if (!(in >> cold_)) return false;
  if (!(in >> tok) || tok != ";") return false;
  while (in >> tok) {
    const auto colon = tok.find(':');
    if (colon == std::string::npos) return false;
    char* end = nullptr;
    const unsigned long long b = std::strtoull(tok.c_str(), &end, 10);
    if (end != tok.c_str() + colon || b >= kBuckets) return false;
    const unsigned long long n = std::strtoull(tok.c_str() + colon + 1, &end, 10);
    if (*end != '\0') return false;
    buckets_[static_cast<unsigned>(b)] = n;
    finite_ += n;
  }
  return true;
}

// ---------------------------------------------------------------------------
// FootprintCurve

void FootprintCurve::addSample(std::uint64_t refs, std::uint64_t lines) {
  AFF_DCHECK(samples_.empty() || refs > samples_.back().first);
  samples_.emplace_back(refs, lines);
  fitTail();
}

// The power law past the last sample, fitted to the last decade of samples
// (or the last two when the capture is short), exponent clamped to [0, 1]
// so the tail stays physical (sublinear, non-decreasing).
void FootprintCurve::fitTail() noexcept {
  const double rn = static_cast<double>(samples_.back().first);
  const double ln = static_cast<double>(samples_.back().second);
  std::size_t j = samples_.size() - 1;
  while (j > 0 && static_cast<double>(samples_[j].first) > rn / 10.0) --j;
  const double rj = static_cast<double>(samples_[j].first);
  const double lj = static_cast<double>(samples_[j].second);
  tail_expo_ = 0.0;
  if (rj < rn && lj > 0.0 && ln > lj) {
    tail_expo_ = std::clamp(std::log(ln / lj) / std::log(rn / rj), 0.0, 1.0);
  }
}

double FootprintCurve::lines(double refs) const noexcept {
  if (refs <= 0.0 || samples_.empty()) return 0.0;
  const double cap =
      cap_lines_ > 0 ? static_cast<double>(cap_lines_) : kInf;
  // Below the first sample: the curve passes through the origin.
  const double r0 = static_cast<double>(samples_.front().first);
  const double l0 = static_cast<double>(samples_.front().second);
  if (refs <= r0) {
    // u(n) is concave; the chord from the origin underestimates, but a
    // reference can touch at most one new line, so also clamp at `refs`.
    return std::min({l0 * refs / r0, refs, cap});
  }
  // Interior: linear interpolation between the first sample at or past
  // `refs` and the one before it.
  const auto hi = std::lower_bound(
      samples_.begin() + 1, samples_.end(), refs,
      [](const auto& sample, double r) { return static_cast<double>(sample.first) < r; });
  if (hi != samples_.end()) {
    const auto lo = hi - 1;
    const double ra = static_cast<double>(lo->first);
    const double la = static_cast<double>(lo->second);
    const double r1 = static_cast<double>(hi->first);
    const double lb = static_cast<double>(hi->second);
    const double t = (refs - ra) / (r1 - ra);
    return std::min(la + t * (lb - la), cap);
  }
  const double rn = static_cast<double>(samples_.back().first);
  const double ln = static_cast<double>(samples_.back().second);
  return std::min(ln * std::pow(refs / rn, tail_expo_), cap);
}

double FootprintCurve::refsFor(double target_lines) const noexcept {
  if (target_lines <= 0.0) return 0.0;
  if (samples_.empty()) return kInf;
  if (cap_lines_ > 0 && target_lines >= static_cast<double>(cap_lines_)) return kInf;
  double hi = static_cast<double>(samples_.back().first);
  while (lines(hi) < target_lines) {
    hi *= 2.0;
    if (hi > 1e18) return kInf;
  }
  double lo = 0.0;
  for (int it = 0; it < 200 && hi - lo > 1e-6 * (1.0 + hi); ++it) {
    const double mid = 0.5 * (lo + hi);
    (lines(mid) < target_lines ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

void FootprintCurve::serialize(std::string* out) const {
  out->append("cap ");
  appendU64(out, cap_lines_);
  out->append(" ;");
  for (const auto& [refs, lines] : samples_) {
    out->push_back(' ');
    appendU64(out, refs);
    out->push_back(':');
    appendU64(out, lines);
  }
}

bool FootprintCurve::deserialize(const std::string& line) {
  *this = FootprintCurve{};
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "cap") return false;
  if (!(in >> cap_lines_)) return false;
  if (!(in >> tok) || tok != ";") return false;
  while (in >> tok) {
    const auto colon = tok.find(':');
    if (colon == std::string::npos) return false;
    char* end = nullptr;
    const unsigned long long r = std::strtoull(tok.c_str(), &end, 10);
    if (end != tok.c_str() + colon) return false;
    const unsigned long long l = std::strtoull(tok.c_str() + colon + 1, &end, 10);
    if (*end != '\0') return false;
    if (!samples_.empty() && r <= samples_.back().first) return false;
    addSample(r, l);
  }
  return true;
}

// ---------------------------------------------------------------------------
// RdProfile

std::string RdProfile::serialize() const {
  std::string out;
  out.reserve(4096);
  out.append("rd-profile v1\n");
  out.append("name ").append(name).push_back('\n');
  out.append("lines ");
  appendU64(&out, l1_line_bytes);
  out.push_back(' ');
  appendU64(&out, l2_line_bytes);
  out.push_back('\n');
  out.append("refs ");
  appendU64(&out, total_refs);
  out.push_back(' ');
  appendU64(&out, ifetch_refs);
  out.push_back('\n');
  const auto emitHist = [&out](const char* key, const RdHistogram& h) {
    out.append(key);
    out.push_back(' ');
    h.serialize(&out);
    out.push_back('\n');
  };
  const auto emitCurve = [&out](const char* key, const FootprintCurve& c) {
    out.append(key);
    out.push_back(' ');
    c.serialize(&out);
    out.push_back('\n');
  };
  emitHist("ifetch", ifetch);
  emitHist("data", data);
  emitHist("unified", unified);
  emitCurve("fp_l1", fp_l1);
  emitCurve("fp_l2", fp_l2);
  return out;
}

std::optional<RdProfile> RdProfile::deserialize(const std::string& text, std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<RdProfile> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "rd-profile v1") return fail("bad header");
  RdProfile p;
  bool saw_refs = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest = space == std::string::npos ? std::string{} : line.substr(space + 1);
    if (key == "name") {
      p.name = rest;
    } else if (key == "lines") {
      if (std::sscanf(rest.c_str(), "%u %u", &p.l1_line_bytes, &p.l2_line_bytes) != 2)
        return fail("bad lines");
    } else if (key == "refs") {
      unsigned long long t = 0;
      unsigned long long i = 0;
      if (std::sscanf(rest.c_str(), "%llu %llu", &t, &i) != 2) return fail("bad refs");
      p.total_refs = t;
      p.ifetch_refs = i;
      saw_refs = true;
    } else if (key == "ifetch") {
      if (!p.ifetch.deserialize(rest)) return fail("bad ifetch histogram");
    } else if (key == "data") {
      if (!p.data.deserialize(rest)) return fail("bad data histogram");
    } else if (key == "unified") {
      if (!p.unified.deserialize(rest)) return fail("bad unified histogram");
    } else if (key == "fp_l1") {
      if (!p.fp_l1.deserialize(rest)) return fail("bad fp_l1 curve");
    } else if (key == "fp_l2") {
      if (!p.fp_l2.deserialize(rest)) return fail("bad fp_l2 curve");
    } else {
      return fail("unknown key");
    }
  }
  if (!saw_refs) return fail("missing refs");
  return p;
}

bool RdProfile::saveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string text = serialize();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

std::optional<RdProfile> RdProfile::loadFile(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str(), error);
}

// ---------------------------------------------------------------------------
// RdCacheModel

namespace {

/// A curve's asymptotic footprint: the cap if set, else the last sample.
double fullFootprint(const FootprintCurve& c) noexcept {
  if (c.capLines() > 0) return static_cast<double>(c.capLines());
  if (c.empty()) return 0.0;
  return static_cast<double>(c.samples().back().second);
}

}  // namespace

RdCacheModel::RdCacheModel(MachineParams machine, RdProfile protocol, RdProfile background,
                           unsigned co_runners, double protocol_duty)
    : machine_(machine),
      proto_(std::move(protocol)),
      bg_(std::move(background)),
      co_runners_(co_runners == 0 ? 1 : co_runners),
      protocol_duty_(std::clamp(protocol_duty, 0.0, 1.0)),
      refs_per_us_(machine_.refsPerMicrosecond()),
      l1_(machine_.l1d),
      l2_(machine_.l2) {
  if (machine_.llc.size_bytes > 0) {
    llc_ = Displacement(machine_.llc);
    // Partition the shared LLC among the co-running streams: every
    // co-runner contributes one protocol stream and one background stream,
    // weighted by its duty cycle.
    const double r = refs_per_us_;
    std::vector<const FootprintCurve*> fps;
    std::vector<double> rates;
    fps.reserve(2 * co_runners_);
    rates.reserve(2 * co_runners_);
    for (unsigned i = 0; i < co_runners_; ++i) {
      fps.push_back(&proto_.fp_l2);
      rates.push_back(r * protocol_duty_);
      fps.push_back(&bg_.fp_l2);
      rates.push_back(r * (1.0 - protocol_duty_));
    }
    const std::vector<double> occ =
        solveOccupancy(static_cast<double>(machine_.llc.lines()), fps, rates);
    llc_share_lines_ = occ.empty() ? 0.0 : occ[0];
  }
}

double RdCacheModel::f1(double x_us) const noexcept {
  if (x_us <= 0.0) return 0.0;
  const double refs = x_us * refs_per_us_;
  const double data_refs = refs * (1.0 - bg_.ifetchFraction());
  return l1_.fraction(bg_.fp_l1.lines(data_refs));
}

double RdCacheModel::f2(double x_us) const noexcept {
  if (x_us <= 0.0) return 0.0;
  return l2_.fraction(bg_.fp_l2.lines(x_us * refs_per_us_));
}

double RdCacheModel::f3(double x_us) const noexcept {
  if (x_us <= 0.0 || machine_.llc.size_bytes == 0) return 0.0;
  const double r = x_us * refs_per_us_;
  // Displacing LLC traffic during the gap: the local processor runs its
  // background, and each of the other co-runners keeps issuing its full
  // protocol + background mix.
  double u = bg_.fp_l2.lines(r);
  if (co_runners_ > 1) {
    const double others = static_cast<double>(co_runners_ - 1);
    u += others * (proto_.fp_l2.lines(r * protocol_duty_) +
                   bg_.fp_l2.lines(r * (1.0 - protocol_duty_)));
  }
  return llc_.fraction(u);
}

// The per-level predictions use the fully-associative stack conversion,
// not the Poisson set-conflict correction: the protocol address layout is
// deliberately staggered so regions don't alias (trace.hpp — "a linker
// would achieve the same"), which makes the direct-mapped cachesim behave
// like a fully-associative cache of the same capacity. Uniform-mapping
// corrections model *random* interfering lines (right for the background
// displacement in f1/f2/f3, wrong here — they overpredict protocol
// self-conflicts by an order of magnitude). tests/rd_model_test.cpp pins
// the residual gap.
double RdCacheModel::l1iGlobalMissRatio() const noexcept {
  return proto_.ifetch.missRatioFullyAssoc(static_cast<double>(machine_.l1i.lines())) *
         proto_.ifetchFraction();
}

double RdCacheModel::l1dGlobalMissRatio() const noexcept {
  return proto_.data.missRatioFullyAssoc(static_cast<double>(machine_.l1d.lines())) *
         (1.0 - proto_.ifetchFraction());
}

double RdCacheModel::l2GlobalMissRatio() const noexcept {
  // Stack property of inclusive LRU: an access misses in L2 iff its reuse
  // distance at L2 line granularity exceeds the L2 capacity — L1 filtering
  // does not change which accesses those are.
  return proto_.unified.missRatioFullyAssoc(static_cast<double>(machine_.l2.lines()));
}

double RdCacheModel::llcGlobalMissRatio() const noexcept {
  if (machine_.llc.size_bytes == 0) return 0.0;
  // Only accesses with RD >= C_l2 reach the (non-inclusive) LLC at all, and
  // of those, the LLC serves the ones within this stream's occupancy share:
  // a miss needs RD >= max(share, C_l2). (Assumes llc.line_bytes ==
  // l2.line_bytes, true of the modern2020 preset, so one unified histogram
  // covers both levels.)
  const double c = std::max(llc_share_lines_, static_cast<double>(machine_.l2.lines()));
  return proto_.unified.missRatioFullyAssoc(c);
}

double RdCacheModel::protoLinesL2() const noexcept { return fullFootprint(proto_.fp_l2); }

std::vector<double> RdCacheModel::solveOccupancy(
    double capacity_lines, const std::vector<const FootprintCurve*>& footprints,
    const std::vector<double>& rate_refs_per_us) {
  AFF_DCHECK(footprints.size() == rate_refs_per_us.size());
  const std::size_t n = footprints.size();
  std::vector<double> occ(n, 0.0);
  if (n == 0 || capacity_lines <= 0.0) return occ;

  const auto occupancyAt = [&](double window_us, std::vector<double>* out) -> double {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double c = footprints[i]->lines(rate_refs_per_us[i] * window_us);
      if (out != nullptr) (*out)[i] = c;
      sum += c;
    }
    return sum;
  };

  // Everything fits: each stream keeps its whole footprint.
  double total_full = 0.0;
  for (std::size_t i = 0; i < n; ++i) total_full += fullFootprint(*footprints[i]);
  if (total_full <= capacity_lines) {
    for (std::size_t i = 0; i < n; ++i) occ[i] = fullFootprint(*footprints[i]);
    return occ;
  }

  // Bisect the common window W with sum_i u_i(r_i W) = C. The sum is
  // monotone non-decreasing in W, 0 at W = 0 and > C at saturation.
  double hi = 1.0;
  while (occupancyAt(hi, nullptr) < capacity_lines && hi < 1e15) hi *= 2.0;
  double lo = 0.0;
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    (occupancyAt(mid, nullptr) < capacity_lines ? lo : hi) = mid;
  }
  occupancyAt(0.5 * (lo + hi), &occ);
  return occ;
}

}  // namespace affinity

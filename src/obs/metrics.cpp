#include "obs/metrics.hpp"

#include <cmath>

#include "util/check.hpp"

namespace affinity::obs {

namespace {

void atomicAdd(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomicMin(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomicMax(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------- MeanStat

void MeanStat::merge(const OnlineStats& s) noexcept {
  if (s.count() > 0) accumulate(s.count(), s.sum(), s.min(), s.max());
}

void MeanStat::accumulate(std::uint64_t n, double sum, double lo, double hi) noexcept {
  // First samples seed min/max; racing first samples both run the CAS loops,
  // so the extrema stay correct either way.
  if (count_.fetch_add(n, std::memory_order_relaxed) == 0) {
    min_.store(lo, std::memory_order_relaxed);
    max_.store(hi, std::memory_order_relaxed);
  } else {
    atomicMin(min_, lo);
    atomicMax(max_, hi);
  }
  atomicAdd(sum_, sum);
}

double MeanStat::mean() const noexcept {
  const auto n = count_.load(std::memory_order_relaxed);
  return n == 0 ? 0.0 : sum_.load(std::memory_order_relaxed) / static_cast<double>(n);
}

double MeanStat::min() const noexcept { return min_.load(std::memory_order_relaxed); }
double MeanStat::max() const noexcept { return max_.load(std::memory_order_relaxed); }

// --------------------------------------------------------- MetricSample

const char* MetricSample::kindName() const noexcept {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kMean: return "mean";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry::Entry& MetricsRegistry::find_or_create_locked(const std::string& name,
                                                               MetricSample::Kind kind) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    std::fprintf(stderr, "metric '%s' re-registered with a different kind (%d vs %d)\n",
                 name.c_str(), static_cast<int>(it->second.kind), static_cast<int>(kind));
    AFF_CHECK(it->second.kind == kind);
  }
  return it->second;
}

// The instrument is created while mu_ is still held: two threads racing to
// register the same name must agree on one instrument (annotating this path
// surfaced a create-after-unlock race in the original code).

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

MeanStat& MetricsRegistry::meanStat(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kMean);
  if (!e.mean) e.mean = std::make_unique<MeanStat>();
  return *e.mean;
}

void MetricsRegistry::mergeHistogram(const std::string& name, const Histogram& h) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kHistogram);
  if (e.histogram) {
    e.histogram->merge(h);
  } else {
    e.histogram = std::make_unique<Histogram>(h);
  }
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.count = e.counter->value();
        s.value = static_cast<double>(s.count);
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricSample::Kind::kMean:
        s.count = e.mean->count();
        s.value = e.mean->mean();
        s.min = e.mean->min();
        s.max = e.mean->max();
        break;
      case MetricSample::Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        s.count = h.count();
        s.value = h.mean();
        s.p50 = h.quantile(0.50);
        s.p95 = h.quantile(0.95);
        s.p99 = h.quantile(0.99);
        s.overflow = h.overflow();
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::writeJson(std::FILE* out) const {
  // JSON has no NaN or infinity: a non-finite value is written as null.
  const auto num = [](double v) {
    char buf[32] = "null";
    if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  const auto samples = snapshot();
  std::fprintf(out, "{\n  \"metrics\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"type\": \"%s\"", jsonEscape(s.name).c_str(),
                 s.kindName());
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::fprintf(out, ", \"value\": %llu", static_cast<unsigned long long>(s.count));
        break;
      case MetricSample::Kind::kGauge:
        std::fprintf(out, ", \"value\": %s", num(s.value).c_str());
        break;
      case MetricSample::Kind::kMean:
        std::fprintf(out, ", \"count\": %llu, \"mean\": %s, \"min\": %s, \"max\": %s",
                     static_cast<unsigned long long>(s.count), num(s.value).c_str(),
                     num(s.min).c_str(), num(s.max).c_str());
        break;
      case MetricSample::Kind::kHistogram:
        std::fprintf(out,
                     ", \"count\": %llu, \"mean\": %s, \"p50\": %s, \"p95\": %s, "
                     "\"p99\": %s, \"overflow\": %llu",
                     static_cast<unsigned long long>(s.count), num(s.value).c_str(),
                     num(s.p50).c_str(), num(s.p95).c_str(), num(s.p99).c_str(),
                     static_cast<unsigned long long>(s.overflow));
        break;
    }
    std::fprintf(out, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

bool MetricsRegistry::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  writeJson(f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------- helpers

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace affinity::obs

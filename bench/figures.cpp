#include "bench/figures.hpp"

#include <algorithm>
#include <initializer_list>

#include "cachesim/rd_capture.hpp"
#include "core/experiment.hpp"
#include "util/check.hpp"

namespace affinity::bench {

namespace {

/// Figs 10 and 11: the baseline and the affinity series at each fixed
/// per-packet overhead V, V-major.
std::vector<Series> overV(std::initializer_list<Series> pair) {
  std::vector<Series> out;
  for (int v : {0, 35, 70, 139}) {
    for (const Series& s : pair)
      out.push_back(extend(s, s.name + " V=" + std::to_string(v),
                           [v](SimConfig& c) { c.fixed_overhead_us = v; }));
  }
  return out;
}

Cell runCellAt(const FigureDef& def, const ExecTimeModel& model, std::size_t row,
               std::size_t series) {
  const double x = def.xs[row];
  SimConfig c = def.config(x);
  if (!def.base_seed)
    c.seed = derivePointSeed(c.seed, def.seed_index.empty() ? row : def.seed_index[row]);
  def.series[series].edit(c);
  if (!def.capacity) return {runOnce(c, model, def.workload(x))};
  const CapacitySearch& s = *def.capacity;
  const CapacityResult r = findMaxRate(c, model, def.workload, s.lo_rate_per_us,
                                       s.hi_rate_per_us, s.delay_bound_us, s.iters);
  return {r.at_max, r.max_rate_per_us};
}

}  // namespace

Series locking(std::string name, LockingPolicy policy) {
  return {std::move(name), [policy](SimConfig& c) {
            c.policy.paradigm = Paradigm::kLocking;
            c.policy.locking = policy;
          }};
}

Series ips(std::string name, IpsPolicy policy) {
  return {std::move(name), [policy](SimConfig& c) {
            c.policy.paradigm = Paradigm::kIps;
            c.policy.ips = policy;
          }};
}

Series hybrid(std::string name, int locking_streams) {
  return {std::move(name), [locking_streams](SimConfig& c) {
            c.policy.paradigm = Paradigm::kHybrid;
            c.policy.locking = LockingPolicy::kMru;
            c.policy.ips = IpsPolicy::kWired;
            for (int s = 0; s < locking_streams; ++s)
              c.policy.hybrid_locking_streams.push_back(static_cast<std::uint32_t>(s));
          }};
}

Series extend(const Series& base, std::string name, std::function<void(SimConfig&)> edit) {
  return {std::move(name), [first = base.edit, then = std::move(edit)](SimConfig& c) {
            first(c);
            then(c);
          }};
}

StreamSetFactory poisson(int streams) {
  return [n = static_cast<std::size_t>(streams)](double rate) {
    return makePoissonStreams(n, rate);
  };
}

FigureDef delayVsRate(const FigureParams& p, std::vector<double> rates,
                      std::vector<Series> series) {
  FigureDef d;
  d.xs = std::move(rates);
  d.config = [p](double rate) { return p.makeConfigFor(rate); };
  d.workload = poisson(p.streams);
  d.series = std::move(series);
  return d;
}

SimConfig FigureParams::makeConfig() const {
  SimConfig c = defaultSimConfig();
  c.num_procs = static_cast<unsigned>(procs);
  c.lock_overhead_us = lock_overhead_us;
  c.critical_section_us = critical_section_us;
  c.seed = seed;
  c.warmup_us = fast ? 50'000.0 : 200'000.0;
  c.measure_us = fast ? 300'000.0 : 2'000'000.0;
  // Sweep sims share the registry across worker threads; each publishes
  // its statistics once, after its run. Never SimConfig::trace — virtual
  // times from parallel points would interleave meaninglessly on one
  // timeline.
  c.metrics = metrics;
  return c;
}

SimConfig FigureParams::makeConfigFor(double rate_per_us) const {
  SimConfig c = makeConfig();
  setAutoWindow(c, rate_per_us, fast ? 15'000 : 80'000);
  return c;
}

std::size_t rowOf(const FigureDef& def, double x) {
  const auto it = std::find(def.xs.begin(), def.xs.end(), x);
  AFF_CHECK(it != def.xs.end());
  return static_cast<std::size_t>(it - def.xs.begin());
}

Cell runCell(const FigureDef& def, const ExecTimeModel& model, std::size_t row,
             std::string_view series) {
  const auto it = std::find_if(def.series.begin(), def.series.end(),
                               [&](const Series& s) { return s.name == series; });
  AFF_CHECK(row < def.xs.size() && it != def.series.end());
  return runCellAt(def, model, row, static_cast<std::size_t>(it - def.series.begin()));
}

std::vector<std::vector<Cell>> runTable(const FigureDef& def, const ExecTimeModel& model,
                                        const SweepRunner& runner) {
  const std::size_t width = def.series.size();
  const auto cells = runner.map(def.xs.size() * width, [&](std::size_t k) {
    return runCellAt(def, model, k / width, k % width);
  });
  std::vector<std::vector<Cell>> rows(def.xs.size());
  for (std::size_t k = 0; k < cells.size(); ++k) rows[k / width].push_back(cells[k]);
  return rows;
}

std::vector<double> rateSweep(bool fast) {
  if (fast) return {0.005, 0.015, 0.03};
  return {0.002, 0.005, 0.008, 0.012, 0.016, 0.020, 0.025, 0.030,
          0.035, 0.038, 0.040, 0.042, 0.044};
}

std::vector<double> rateSweepWithLowEnd(bool fast) {
  if (fast) return {0.0005, 0.005, 0.03};
  std::vector<double> rates{0.0002, 0.0005, 0.001};
  for (double r : rateSweep(false)) rates.push_back(r);
  return rates;
}

FigureDef fig06LockingDelay(const FigureParams& p) {
  return delayVsRate(p, rateSweep(p.fast),
                     {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
                      locking("WiredStreams", LockingPolicy::kWiredStreams)});
}

FigureDef fig07LockingMarginal(const FigureParams& p) {
  return delayVsRate(p, rateSweep(p.fast),
                     {locking("FCFS", LockingPolicy::kFcfs), locking("MRU", LockingPolicy::kMru),
                      locking("StreamMRU", LockingPolicy::kStreamMru),
                      locking("WiredStreams", LockingPolicy::kWiredStreams)});
}

FigureDef fig08IpsDelay(const FigureParams& p) {
  return delayVsRate(p, rateSweepWithLowEnd(p.fast),
                     {ips("Random", IpsPolicy::kRandom), ips("MRU", IpsPolicy::kMru),
                      ips("Wired", IpsPolicy::kWired)});
}

FigureDef fig09Delay(const FigureParams& p) {
  FigureDef d = delayVsRate(p, rateSweep(p.fast),
                            {locking("Locking_MRU", LockingPolicy::kMru),
                             ips("IPS_Wired", IpsPolicy::kWired)});
  d.config = [p](double) { return p.makeConfig(); };
  return d;
}

FigureDef fig09Capacity(const FigureParams& p, double delay_bound_us) {
  FigureDef d;
  d.xs = {delay_bound_us};
  d.base_seed = true;
  d.config = [p](double) {
    SimConfig c = p.makeConfig();
    c.measure_us = p.fast ? 200'000.0 : 800'000.0;
    return c;
  };
  d.workload = poisson(p.streams);
  d.capacity = CapacitySearch{0.002, 0.08, delay_bound_us, 10};
  d.series = {locking("Locking/MRU", LockingPolicy::kMru), ips("IPS/Wired", IpsPolicy::kWired)};
  return d;
}

FigureDef fig10ReductionLocking(const FigureParams& p) {
  // The affinity system bundles MRU processor management with
  // per-processor pools and stream affinity (paper §5.1, footnote 7).
  return delayVsRate(p, rateSweep(p.fast),
                     overV({locking("FCFS", LockingPolicy::kFcfs),
                            locking("StreamMRU", LockingPolicy::kStreamMru)}));
}

FigureDef fig11ReductionIps(const FigureParams& p) {
  return delayVsRate(p, rateSweep(p.fast),
                     overV({ips("Random", IpsPolicy::kRandom), ips("Wired", IpsPolicy::kWired)}));
}

FigureDef fig12Burstiness(const FigureParams& p, double rate_per_us) {
  FigureDef d;
  d.xs = p.fast ? std::vector<double>{1, 8, 24} : std::vector<double>{1, 2, 4, 8, 16, 24, 32};
  d.config = [p](double) { return p.makeConfig(); };
  d.workload = [n = static_cast<std::size_t>(p.streams), rate_per_us](double batch) {
    return makeBatchStreams(n, rate_per_us, batch, /*geometric=*/false);
  };
  d.series = {locking("Locking_MRU", LockingPolicy::kMru), ips("IPS_Wired", IpsPolicy::kWired)};
  return d;
}

FigureDef fig13Scalability(const FigureParams& p, double delay_bound_us) {
  FigureDef d;
  d.xs = p.fast ? std::vector<double>{1, 4, 8} : std::vector<double>{1, 2, 4, 6, 8};
  d.config = [p](double procs) {
    SimConfig c = p.makeConfig();
    c.num_procs = static_cast<unsigned>(procs);
    c.measure_us = p.fast ? 200'000.0 : 600'000.0;
    return c;
  };
  d.workload = poisson(1);
  d.capacity = CapacitySearch{0.001, 0.09, delay_bound_us, 10};
  d.series = {locking("Locking_MRU", LockingPolicy::kMru), ips("IPS_Wired", IpsPolicy::kWired)};
  return d;
}

FigureDef llcFig6(const FigureParams& p) {
  FigureDef d = delayVsRate(p, {0.030, 0.034, 0.038, 0.040, 0.042, 0.046},
                            {locking("MRU", LockingPolicy::kMru),
                             locking("Wired", LockingPolicy::kWiredStreams)});
  d.seed_index = {5, 7, 9, 10, 11, 13};
  return d;
}

FigureDef llcFig8(const FigureParams& p) {
  FigureDef d = fig08IpsDelay(p);
  d.xs = {0.0005, 0.001, 0.004};
  d.seed_index = {1, 2, 4};
  return d;
}

FigureDef llcFig9(const FigureParams& p) {
  FigureDef d = fig09Capacity(p);
  d.config = [p](double) {
    SimConfig c = p.makeConfig();
    c.measure_us = 800'000.0;
    return c;
  };
  return d;
}

FigureDef llcFig12(const FigureParams& p) {
  FigureDef d = fig12Burstiness(p);
  d.xs = {1, 4, 8};
  d.seed_index = {0, 2, 3};
  return d;
}

ExecTimeModel modern2020Model(unsigned co_runners) {
  RdCaptureParams capture;
  capture.co_runners = co_runners;
  return ExecTimeModel(cachedDefaultRdModel(MachineParams::modern2020(), capture),
                       ReloadParams::measuredUdpReceive().splitForSharedLlc(),
                       FootprintShares{});
}

}  // namespace affinity::bench

// Concurrent-stream capacity (abstract): how many concurrent streams, each
// at a fixed per-stream packet rate, the host can support under a mean-delay
// bound — comparing no-affinity, affinity-scheduled Locking, and IPS.
// Expected: affinity scheduling enables the host to support a greater
// number of concurrent streams.
#include <cstdio>
#include <iterator>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

// Largest stream count in [1, limit] that keeps mean delay under bound.
int maxStreams(const SimConfig& base, const ExecTimeModel& model, double per_stream_rate,
               double bound, int limit) {
  int lo = 0, hi = limit + 1;  // lo feasible, hi infeasible
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    ProtocolSim sim(base, model, makePoissonStreams(static_cast<std::size_t>(mid),
                                                    per_stream_rate * mid));
    const RunMetrics m = sim.run();
    const bool ok = !m.saturated && m.mean_delay_us <= bound;
    (ok ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("tab2_stream_capacity", "max concurrent streams under a delay bound");
  const auto flags = CommonFlags::declare(cli);
  const double& per_stream =
      cli.flag<double>("per-stream-rate", 0.0012, "per-stream packet rate (pkts/us)");
  const double& bound = cli.flag<double>("delay-bound", 600.0, "mean delay bound (us)");
  cli.parse(argc, argv);

  const auto model = ExecTimeModel::standard();
  std::printf("# Table 2 — max concurrent streams at %.0f pkts/s each, delay bound %.0f us\n",
              perSecond(per_stream), bound);
  TableWriter t({"configuration", "max_streams", "aggregate_pkts_per_s"}, flags.csv, 0);
  struct Case {
    const char* name;
    Paradigm paradigm;
    LockingPolicy locking;
    IpsPolicy ips;
  };
  const Case cases[] = {
      {"Locking/FCFS (no affinity)", Paradigm::kLocking, LockingPolicy::kFcfs, IpsPolicy::kWired},
      {"Locking/MRU", Paradigm::kLocking, LockingPolicy::kMru, IpsPolicy::kWired},
      {"Locking/StreamMRU", Paradigm::kLocking, LockingPolicy::kStreamMru, IpsPolicy::kWired},
      {"Locking/WiredStreams", Paradigm::kLocking, LockingPolicy::kWiredStreams,
       IpsPolicy::kWired},
      {"IPS/Wired", Paradigm::kIps, LockingPolicy::kMru, IpsPolicy::kWired},
  };
  const std::size_t ncases = std::size(cases);
  const auto counts = flags.runner().map(ncases, [&](std::size_t i) {
    const Case& cs = cases[i];
    SimConfig c = flags.params().makeConfig();
    c.seed = derivePointSeed(flags.seed, i);
    c.measure_us = flags.fast ? 200'000.0 : 700'000.0;
    c.policy.paradigm = cs.paradigm;
    c.policy.locking = cs.locking;
    c.policy.ips = cs.ips;
    return maxStreams(c, model, per_stream, bound, 64);
  });
  for (std::size_t i = 0; i < ncases; ++i) {
    t.beginRow();
    t.addText(cases[i].name);
    t.add(counts[i]);
    t.add(perSecond(per_stream * counts[i]));
  }
  t.print();
  return 0;
}

// Extension (iii): under IPS, vary the number of independent stacks K while
// keeping 8 processors. Few stacks limit concurrency (streams pile onto few
// serial contexts); many stacks dilute per-stack warmth and overload wired
// processors unevenly. Wired placement maps stack k to processor k mod N.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_ips_stacks", "IPS: effect of the number of independent stacks");
  const auto flags = CommonFlags::declare(cli);
  const double& rate = cli.flag<double>("rate", 0.02, "aggregate packet rate (pkts/us)");
  cli.parse(argc, argv);

  FigureDef def;
  def.xs = flags.fast ? std::vector<double>{2, 8, 16} : std::vector<double>{1, 2, 4, 8, 12, 16};
  def.base_seed = true;
  def.config = [p = flags.params(), rate](double stacks) {
    SimConfig c = p.makeConfigFor(rate);
    c.policy.ips_stacks = static_cast<unsigned>(stacks);
    return c;
  };
  def.workload = [n = static_cast<std::size_t>(flags.streams), rate](double) {
    return makePoissonStreams(n, rate);
  };
  def.series = {ips("Wired", IpsPolicy::kWired), ips("MRU", IpsPolicy::kMru)};

  std::printf("# Extension iii — IPS, %d procs, %d streams, rate %.0f pkts/s\n", flags.procs,
              flags.streams, perSecond(rate));
  TableWriter t({"stacks", "Wired_delay_us", "MRU_delay_us", "Wired_util"}, flags.csv, 2);
  const auto rows = runTable(def, ExecTimeModel::standard(), flags.runner());
  for (std::size_t i = 0; i < def.xs.size(); ++i)
    t.addRow({def.xs[i], rows[i][0].run.mean_delay_us, rows[i][1].run.mean_delay_us,
              rows[i][0].run.utilization});
  t.print();
  return 0;
}

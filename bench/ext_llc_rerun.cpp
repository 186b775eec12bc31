// Extension: "2020s topology" rerun of the headline figures (6, 8, 9, 12)
// on a shared-LLC machine (MachineParams::modern2020: private 32 KB L1s and
// a 1 MB L2 per core behind a shared 32 MiB LLC) under the reuse-distance
// cache model, side by side with the paper's 1995 SGI Challenge + SST
// model. Clock and cycles-per-ref stay at the paper's values, so the two
// columns differ only in hierarchy *shape* — the question is which 1995
// scheduling conclusions survive three decades of cache evolution.
// EXPERIMENTS.md ("Shared-LLC rerun") records the verdicts; the pinned
// shapes live in tests/golden_llc_test.cpp.
#include <cstdio>

#include "bench/common.hpp"

using namespace affinity;
using namespace affinity::bench;

int main(int argc, char** argv) {
  Cli cli("ext_llc_rerun", "shared-LLC (2020s topology) rerun of figures 6/8/9/12");
  const auto flags = CommonFlags::declare(cli);
  cli.parse(argc, argv);

  const FigureParams params = flags.params();
  const SweepRunner runner = flags.runner();
  const ExecTimeModel legacy = ExecTimeModel::standard();
  const ExecTimeModel modern = modern2020Model(static_cast<unsigned>(flags.procs));

  std::printf("# Shared-LLC rerun: 1995 (SST, no LLC) vs 2020s (reuse, 32 MiB shared LLC)\n");
  std::printf("# both t_cold = %.1f us; modern splits dl2 into dl2=%.1f dl3=%.1f\n",
              legacy.tCold(), modern.reloadParams().dl2_us, modern.reloadParams().dl3_us);

  // A delay table: each row holds its 1995 cells, then its 2020 ones.
  const auto delays = [&](const char* title, std::vector<std::string> header,
                          const FigureDef& fig, double x_scale) {
    TableWriter t(std::move(header), flags.csv, 1);
    const auto rows_1995 = runTable(fig, legacy, runner);
    const auto rows_2020 = runTable(fig, modern, runner);
    for (std::size_t i = 0; i < fig.xs.size(); ++i) {
      t.beginRow();
      t.add(fig.xs[i] * x_scale);
      addDelays(t, rows_1995[i]);
      addDelays(t, rows_2020[i]);
    }
    std::printf("\n## %s\n", title);
    t.print();
  };

  // Figure 6 — Locking delay, MRU vs Wired-Streams around the crossover.
  delays("Figure 6 rerun — Locking mean delay (us)",
         {"rate_pkts_per_s", "MRU_1995", "Wired_1995", "MRU_2020", "Wired_2020"},
         llcFig6(params), 1e6);

  // Figure 8 — IPS placement at light load (code-warmth concentration win).
  delays("Figure 8 rerun — IPS mean delay at light load (us)",
         {"rate_pkts_per_s", "Random_1995", "MRU_1995", "Wired_1995", "Random_2020", "MRU_2020",
          "Wired_2020"},
         llcFig8(params), 1e6);

  // Figure 9 — capacity under a 1 ms delay bound, Locking-MRU vs IPS-Wired.
  {
    const FigureDef fig = llcFig9(params);
    TableWriter t({"model", "Locking_pkts_s", "IPS_pkts_s", "IPS_over_Locking"}, flags.csv, 3);
    for (const auto& [name, model] : {std::pair{"1995", &legacy}, std::pair{"2020", &modern}}) {
      const std::vector<Cell> caps = runTable(fig, *model, runner)[0];
      t.beginRow();
      t.addText(name);
      t.add(caps[0].max_rate_per_us * 1e6);
      t.add(caps[1].max_rate_per_us * 1e6);
      t.add(caps[1].max_rate_per_us / caps[0].max_rate_per_us);
    }
    std::printf("\n## Figure 9 rerun — capacity at 1 ms delay bound\n");
    t.print();
  }

  // Figure 12 — burstiness crossover, Locking-MRU vs IPS-Wired by batch.
  delays("Figure 12 rerun — burstiness, mean delay (us)",
         {"batch", "Locking_1995", "IPS_1995", "Locking_2020", "IPS_2020"}, llcFig12(params),
         1.0);
  return 0;
}

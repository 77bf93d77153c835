// §IV Tab #1 reproduction: performance and CO2 of the Montage workflow on
// the 64-node local cluster (291 gCO2e/kWh, 7 p-states, power-off allowed).
//
// Q1: baseline at full power — execution time, speedup, efficiency.
// Q2: under the 3-minute bound, binary-search (a) the minimum node count at
//     the highest p-state and (b) the minimum p-state with all 64 nodes;
//     report the CO2 of each option.
// Q3: the boss's combined heuristic (power off AND downclock) — expected to
//     beat both single-knob options.
// Plus the full node-count and p-state sweeps behind the searches.
#include <iostream>

#include "core/table.hpp"
#include "wfsim/montage.hpp"
#include "wfsim/schedule.hpp"

int main() {
  using namespace peachy;
  using namespace peachy::wf;

  const Workflow wf = make_montage();
  const Platform plat = eduwrench_platform();
  constexpr double kDeadline = 180.0;

  std::cout << "Tab #1 — Montage-" << wf.num_tasks()
            << " on the 64-node cluster (7 p-states, "
            << plat.cluster.gco2_per_kwh << " gCO2e/kWh), deadline "
            << kDeadline << " s\n\n";

  // --- Q1 baseline.
  RunConfig base;
  base.nodes_on = 64;
  base.pstate = plat.max_pstate();
  const SimResult baseline = simulate(wf, plat, base);
  const SpeedupReport sp = speedup_vs_one_node(wf, plat, base);
  std::cout << "Q1 baseline (64 nodes @ p" << base.pstate << "):\n";
  TextTable q1({"metric", "value"});
  q1.row({"execution time (s)", TextTable::num(baseline.makespan_s, 1)});
  q1.row({"1-node time (s)", TextTable::num(sp.t1_s, 1)});
  q1.row({"speedup", TextTable::num(sp.speedup, 2)});
  q1.row({"parallel efficiency", TextTable::num(sp.efficiency, 3)});
  q1.row({"energy (kWh)",
          TextTable::num(baseline.cluster_energy_j / 3.6e6, 3)});
  q1.row({"gCO2e", TextTable::num(baseline.total_gco2, 1)});
  q1.print(std::cout);

  // --- Node sweep at max p-state (the curve students binary-search over).
  std::cout << "\nnode-count sweep @ p" << plat.max_pstate() << ":\n";
  TextTable nodes_t({"nodes", "time_s", "meets 180s", "gCO2e"});
  for (int n : {8, 16, 24, 32, 40, 48, 56, 64}) {
    RunConfig cfg;
    cfg.nodes_on = n;
    cfg.pstate = plat.max_pstate();
    const SimResult r = simulate(wf, plat, cfg);
    nodes_t.row({TextTable::num(static_cast<std::int64_t>(n)),
                 TextTable::num(r.makespan_s, 1),
                 r.makespan_s <= kDeadline ? "yes" : "no",
                 TextTable::num(r.total_gco2, 1)});
  }
  nodes_t.print(std::cout);

  // --- P-state sweep with all 64 nodes.
  std::cout << "\np-state sweep @ 64 nodes:\n";
  TextTable ps_t({"pstate", "Gflop/s", "busy W", "time_s", "meets 180s",
                  "gCO2e"});
  for (int p = 0; p < plat.num_pstates(); ++p) {
    RunConfig cfg;
    cfg.nodes_on = 64;
    cfg.pstate = p;
    const SimResult r = simulate(wf, plat, cfg);
    ps_t.row({std::string("p").append(std::to_string(p)),
              TextTable::num(plat.cluster.pstates[static_cast<std::size_t>(p)]
                                 .gflops,
                             0),
              TextTable::num(plat.cluster.pstates[static_cast<std::size_t>(p)]
                                 .busy_watts,
                             0),
              TextTable::num(r.makespan_s, 1),
              r.makespan_s <= kDeadline ? "yes" : "no",
              TextTable::num(r.total_gco2, 1)});
  }
  ps_t.print(std::cout);

  // --- Q2 + Q3.
  const ClusterChoice fewer =
      min_nodes_for_deadline(wf, plat, plat.max_pstate(), kDeadline);
  const ClusterChoice slower = min_pstate_for_deadline(wf, plat, 64, kDeadline);
  const ClusterChoice combined = combined_power_heuristic(wf, plat, kDeadline);

  std::cout << "\nQ2/Q3 under the " << kDeadline << " s bound:\n";
  TextTable q23({"option", "nodes", "pstate", "time_s", "gCO2e",
                 "vs baseline"});
  auto add = [&](const std::string& label, const ClusterChoice& c) {
    q23.row({label, TextTable::num(static_cast<std::int64_t>(c.nodes_on)),
             std::string("p").append(std::to_string(c.pstate)),
             TextTable::num(c.result.makespan_s, 1),
             TextTable::num(c.result.total_gco2, 1),
             TextTable::num(100.0 * (1.0 - c.result.total_gco2 /
                                               baseline.total_gco2),
                            1) +
                 "% less"});
  };
  add("Q2a power off (min nodes @ max p-state)", fewer);
  add("Q2b downclock (min p-state @ 64 nodes)", slower);
  add("Q3 boss heuristic (both knobs)", combined);
  q23.print(std::cout);

  const bool q3_wins =
      combined.result.total_gco2 < fewer.result.total_gco2 &&
      combined.result.total_gco2 < slower.result.total_gco2;
  std::cout << "\npaper's Q3 claim (combined beats both single-knob "
               "options): "
            << (q3_wins ? "REPRODUCED" : "NOT reproduced") << "\n";
  return q3_wins ? 0 : 1;
}

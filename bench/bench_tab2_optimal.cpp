// §IV Tab #2, the paper's stated future work, implemented:
//   "In the future, we will run our simulator to exhaustively evaluate all
//    possible options so as to compute the actual optimal CO2 emission for
//    this (NP-complete) problem."
//
// Placement search space restricted to per-level cloud fractions (the same
// space the assignment's UI exposes): exhaustive {0, 1/2, 1}^9 grid
// (19 683 simulations), then hill-climb refinement at 1/8 granularity.
// Prints the optimum, its placement, and how far the Q1/Q2 answers are
// from it — the number the authors wanted to state in the assignment.
#include <iostream>

#include "core/table.hpp"
#include "core/timer.hpp"
#include "wfsim/montage.hpp"
#include "wfsim/schedule.hpp"

int main() {
  using namespace peachy;
  using namespace peachy::wf;

  const Workflow wf = make_montage();
  const Platform plat = eduwrench_platform();

  std::cout << "Tab #2 exhaustive CO2 optimum (per-level cloud fractions, "
               "12 nodes @ p0 + 16 VMs)\n\n";

  WallTimer timer;
  const CloudSearchResult grid =
      exhaustive_cloud_search(wf, plat, 12, 0, {0.0, 0.5, 1.0});
  const double grid_s = timer.elapsed_s();
  timer.reset();
  const CloudSearchResult best =
      refine_cloud_fractions(wf, plat, 12, 0, grid.fractions, 0.125);
  const double refine_s = timer.elapsed_s();

  RunConfig all_local;
  all_local.nodes_on = 12;
  all_local.pstate = 0;
  const SimResult local = simulate(wf, plat, all_local);
  RunConfig all_cloud = all_local;
  all_cloud.placement = Placement::all(wf, Site::kCloud);
  const SimResult cloud = simulate(wf, plat, all_cloud);

  TextTable t({"configuration", "time_s", "total gCO2e", "vs optimum"});
  auto add = [&](const std::string& label, const SimResult& r) {
    t.row({label, TextTable::num(r.makespan_s, 1),
           TextTable::num(r.total_gco2, 1),
           std::string("+") +
               TextTable::num(
                   100.0 * (r.total_gco2 / best.result.total_gco2 - 1.0), 1) +
               "%"});
  };
  add("all local (Q1)", local);
  add("all cloud (Q1)", cloud);
  add("grid optimum {0,1/2,1}^9", grid.result);
  add("refined optimum (1/8 steps)", best.result);
  t.print(std::cout);

  std::cout << "\noptimal per-level cloud fractions (L0..L8): [";
  for (std::size_t i = 0; i < best.fractions.size(); ++i)
    std::cout << (i ? " " : "") << TextTable::num(best.fractions[i], 3);
  std::cout << "]\n"
            << "grid: " << grid.evaluated << " simulations in "
            << TextTable::num(grid_s, 1) << " s; refinement: "
            << best.evaluated << " more in " << TextTable::num(refine_s, 1)
            << " s\n"
            << "actual optimal CO2 emission (restricted space): "
            << TextTable::num(best.result.total_gco2, 1) << " gCO2e\n";
  return 0;
}

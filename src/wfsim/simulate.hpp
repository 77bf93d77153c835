// Workflow execution simulation with energy & carbon accounting (paper §IV).
//
// The execution model mirrors the EduWRENCH activity:
//  * the local cluster runs `nodes_on` single-task nodes, all in one p-state
//    (the assignment's simplifying homogeneity assumption);
//  * the cloud runs a fixed number of single-task VMs;
//  * every file lives at one or both sites; a task placed at a site first
//    pulls its missing inputs through the shared link (a sim::FlowSet edge;
//    FIFO by default: latency + bytes/bandwidth per file, one at a time);
//    outputs are written to the executing site's storage — hence the data
//    locality the assignment highlights (a cloud child of a cloud parent
//    transfers nothing);
//  * ready tasks are dispatched FIFO (by task id) per site;
//  * energy: cluster busy time is billed at the p-state's busy draw, the
//    remaining powered-on time at idle draw; VM busy time at VM draw. CO2 =
//    energy x site carbon intensity.
#pragma once

#include "wfsim/platform.hpp"
#include "wfsim/workflow.hpp"

namespace peachy::wf {

/// Where a task runs.
enum class Site { kCluster, kCloud };

/// Per-task placement decisions.
class Placement {
 public:
  Placement() = default;

  /// Every task on one site.
  static Placement all(const Workflow& wf, Site site);

  /// Per-level cloud fractions: within level l, the first
  /// round(fraction[l] * level_size) tasks (id order) go to the cloud.
  /// `fractions` may be shorter than the level count (missing = 0).
  static Placement level_fractions(const Workflow& wf,
                                   const std::vector<double>& fractions);

  Site site_of(int task_id) const {
    return sites_.empty() ? Site::kCluster
                          : sites_.at(static_cast<std::size_t>(task_id));
  }
  void set(int task_id, Site site) {
    sites_.at(static_cast<std::size_t>(task_id)) = site;
  }
  bool empty() const { return sites_.empty(); }
  int cloud_task_count() const;

 private:
  std::vector<Site> sites_;
};

/// One simulated execution's configuration.
struct RunConfig {
  int nodes_on = 64;   ///< powered-on cluster nodes (0 allowed if all-cloud)
  int pstate = 6;      ///< p-state of every powered-on node
  Placement placement; ///< empty = everything on the cluster
  /// Heterogeneous extension (lifts the assignment's "all powered-on nodes
  /// operate in the same p-state" simplification): when non-empty, entry i
  /// is node i's p-state and must have exactly nodes_on entries; `pstate`
  /// is ignored. The dispatcher always grabs the fastest free node.
  std::vector<int> node_pstates;
};

/// Observables the assignment asks students to read off the simulator.
struct SimResult {
  double makespan_s = 0;
  double cluster_energy_j = 0;
  double cloud_energy_j = 0;
  double cluster_gco2 = 0;
  double cloud_gco2 = 0;
  double total_gco2 = 0;
  double cluster_busy_node_s = 0;
  double cloud_busy_vm_s = 0;
  /// Link occupancy. FIFO (store-and-forward) counts latency + bytes /
  /// bandwidth for every transfer; fair share counts only the wall time
  /// during which bytes move (latency is a delay before a transfer joins).
  double link_busy_s = 0;
  /// Bytes and count of cross-site file transfers, counted when a transfer
  /// is requested. A file crosses to a site at most once, so both link
  /// models report the same transfers for the same placement.
  double transferred_bytes = 0;
  std::int64_t transfers = 0;
  int tasks_on_cluster = 0;
  int tasks_on_cloud = 0;
};

/// Simulates one workflow execution. Throws peachy::Error if the
/// configuration cannot run (e.g. cluster tasks with zero powered nodes or
/// an out-of-range p-state).
SimResult simulate(const Workflow& wf, const Platform& platform,
                   const RunConfig& config);

/// Convenience: parallel speedup and efficiency of `result` against the
/// same workload on one cluster node in the same p-state.
struct SpeedupReport {
  double t1_s = 0;
  double tn_s = 0;
  double speedup = 0;
  double efficiency = 0;
};
SpeedupReport speedup_vs_one_node(const Workflow& wf, const Platform& platform,
                                  const RunConfig& config);

}  // namespace peachy::wf

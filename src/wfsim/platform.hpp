// Platform model for the carbon-footprint assignment (paper §IV.B).
//
// Tab #1: a 64-node local cluster powered by a 291 gCO2e/kWh plant; nodes
// can be powered off, and powered-on nodes all run in one of seven p-states
// trading speed for power.
// Tab #2: 16 virtual machines on a remote green cloud, reachable through a
// bandwidth-limited link; the cloud has its own storage (data locality).
//
// The paper gives the cluster size, p-state count, carbon intensity, VM
// count and the qualitative trade-offs; the remaining constants below are
// our calibration (documented in DESIGN.md/EXPERIMENTS.md) chosen so the
// assignment's answers keep their published shape: the highest-performance
// baseline lands well under the 3-minute bound, single-knob optimizations
// (power off / downclock) both work, and their combination wins.
#pragma once

#include <vector>

#include "core/error.hpp"
#include "machine/machine.hpp"
#include "sim/flows.hpp"

namespace peachy::wf {

/// One processor power state.
struct PState {
  double gflops = 0;      ///< compute speed of a node in this state
  double busy_watts = 0;  ///< node power draw while computing
};

/// The local cluster.
struct ClusterConfig {
  int total_nodes = 64;
  std::vector<PState> pstates;  ///< index 0 = slowest/lowest power
  double idle_watts = 95;       ///< draw of a powered-on idle node
  double gco2_per_kwh = 291;    ///< non-green power plant
};

/// The remote green cloud.
struct CloudConfig {
  int vms = 16;
  double vm_gflops = 14;
  double vm_busy_watts = 150;
  double gco2_per_kwh = 25;  ///< green, but not literally zero
};

/// How concurrent transfers share the wide-area link: kFifo (store-and-
/// forward, one transfer at a time at full rate) or kFairShare (n
/// concurrent transfers each progress at bandwidth / n).
using LinkSharing = sim::Sharing;

/// The wide-area link between the organization and the cloud.
struct LinkConfig {
  double bytes_per_s = 125e6;  ///< 1 Gbit/s
  double latency_s = 0.010;
  LinkSharing sharing = LinkSharing::kFifo;
};

struct Platform {
  ClusterConfig cluster;
  CloudConfig cloud;
  LinkConfig link;

  int num_pstates() const { return static_cast<int>(cluster.pstates.size()); }
  int max_pstate() const { return num_pstates() - 1; }
};

/// Energy/carbon calibration applied on top of a machine description when
/// deriving a wf::Platform. Speeds and link parameters come from the
/// machine model; watts and carbon intensity are a wfsim concern (the
/// machine model knows nothing about power). Defaults are the assignment's
/// published values.
struct EnergyModel {
  double cluster_idle_watts = 95;
  double cluster_dynamic_watts = 30.0;  ///< coefficient on clock^exponent
  double cluster_power_exponent = 2.5;
  double cluster_gco2_per_kwh = 291;
  double vm_busy_watts = 150;
  double cloud_gco2_per_kwh = 25;
};

/// The assignment's hardware as a hierarchical machine description: a
/// "cluster" node group (64 single-core nodes, seven DVFS clock states) and
/// a "cloud" group (16 VM nodes) reaching the fabric through the 1 Gbit/s
/// WAN uplink. Intra-cluster edges carry representative LAN values; the
/// wf::Platform adapter only reads node counts, speeds and the uplink.
machine::Machine eduwrench_machine();

/// Derives the flat wf::Platform from a machine description. Requires node
/// groups named "cluster" and "cloud"; cluster p-states come from the
/// cluster group's clock states, the WAN link from the cloud group's
/// uplink. Throws peachy::Error when either group is missing or the cloud
/// group has no uplink.
Platform platform_from_machine(const machine::Machine& m,
                               const EnergyModel& energy = {});

/// The assignment's platform: 64 nodes, 7 p-states (10..22 Gflop/s with
/// superlinear dynamic power), 16 green VMs, 1 Gbit/s link. Built as
/// `platform_from_machine(eduwrench_machine())` — the machine model is the
/// source of truth for every speed and link constant.
Platform eduwrench_platform();

}  // namespace peachy::wf

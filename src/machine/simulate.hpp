// Comp+comm task-DAG simulation over the hierarchical machine model.
//
// Tasks are pinned to cores and run FIFO per core; transfers between tasks
// are routed through the hierarchy (machine::route) and share every edge on
// their path fair-share, SimGrid-style, as flows of one sim::FlowSet: whenever
// the set of active flows changes, each flow's rate becomes min over its
// route edges of bandwidth(edge) / flows_on(edge), and in-flight progress is
// advanced before rates are recomputed. Route latency is paid once per
// transfer as a fixed delay before the flow starts moving bytes.
//
// Everything runs on sim::Engine, so results are deterministic and
// bit-reproducible: equal-time events fire in scheduling order.
#pragma once

#include <vector>

#include "machine/machine.hpp"

namespace peachy::machine {

/// One compute task: `flops` of work pinned to `core`, eligible once every
/// task in `deps` has finished and every inbound transfer has arrived.
struct Task {
  double flops = 0.0;
  CoreId core;
  std::vector<int> deps;
};

/// A typed data movement from task `src` to task `dst`. The transfer starts
/// when `src` finishes; `dst` cannot start before it completes. Transfers
/// between tasks on the same core are free (no edges, no latency).
struct Transfer {
  int src = -1;
  int dst = -1;
  double bytes = 0.0;
};

struct Dag {
  std::vector<Task> tasks;
  std::vector<Transfer> transfers;
};

/// Per-edge traffic accounting: total bytes carried and the wall-clock time
/// the edge had at least one active flow.
struct EdgeUsage {
  EdgeRef edge;
  double bytes = 0.0;
  double busy_s = 0.0;
};

struct Report {
  double makespan_s = 0.0;
  std::vector<double> task_start_s;
  std::vector<double> task_finish_s;
  std::vector<double> transfer_start_s;   ///< when the source task finished
  std::vector<double> transfer_finish_s;  ///< when the last byte arrived
  std::vector<EdgeUsage> edges;           ///< sorted by EdgeRef
};

/// Simulates `dag` on `m`. Throws peachy::Error on malformed input (bad
/// core/task indices, negative work) or when dependencies are cyclic.
Report simulate(const Machine& m, const Dag& dag);

}  // namespace peachy::machine

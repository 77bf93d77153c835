// Distributed sandpile via the Ghost Cell Pattern (paper §II.B, 4th
// assignment; Kjolstad & Snir 2010), over the mpp message-passing runtime.
//
// The interior is block-partitioned over a (ranks / ranks_x) x ranks_x
// process grid; the default ranks_x = 1 is the assignment's 1-D row
// decomposition. Each rank keeps a ring of `halo_depth` ghost cells. With
// depth k, ranks exchange halos every k synchronous iterations and
// recompute a shrinking ghost band in between — the paper's "trade
// redundant computation for less-frequent communication". Splitting the
// columns too makes the exchanged volume scale with the block perimeter
// (the pattern's surface-to-volume argument) for up to twice the messages.
// Termination is a global all-reduce of each rank's last changed round,
// run every 4th exchange round (and at checkpoint rounds and max_rounds)
// rather than every round; `rounds` still reports the round a per-round
// check would have stopped at, since a fixed point stays fixed.
#pragma once

#include <functional>

#include "mpp/mpp.hpp"
#include "sandpile/field.hpp"

namespace peachy::sandpile {

/// Configuration of a distributed stabilization.
struct DistributedOptions {
  int ranks = 4;           ///< total ranks
  int ranks_x = 1;         ///< process-grid columns; must divide `ranks`
  int halo_depth = 1;      ///< k: iterations per halo exchange
  int max_rounds = 0;      ///< 0 = run until globally stable
  /// Checkpoint every N exchange rounds (0 = never). Each such round also
  /// runs the termination verdict, and the cut is taken only when it says
  /// "still changing". Needs a checkpoint directory — run supervised
  /// (run.resilience.max_restarts > 0) or set run.resilience.checkpoint_dir.
  /// On start the body restores the last committed slab set, so an
  /// interrupted run resumes mid-computation.
  int checkpoint_every = 0;
  mpp::RunOptions run;     ///< which substrate carries the halos
  /// Cooperative cancellation: evaluated on rank 0 at each termination
  /// verdict (every 4th exchange round, so up to 3 rounds of latency) and
  /// broadcast through its all-reduce, so every rank stops at the same
  /// consistent cut. The result comes back with aborted=true (and the grid
  /// as of that round). peachyd's job cancel rides this.
  std::function<bool()> should_abort;
};

/// Outcome of a distributed stabilization.
struct DistributedResult {
  Field field;                 ///< stabilized configuration (gathered)
  bool stable = false;
  bool aborted = false;        ///< should_abort() fired before stability
  /// Halo-exchange rounds up to and including the first one that changed
  /// nothing (the last round run when capped or aborted). A stable run may
  /// execute up to 3 more, which the fixed point makes no-ops.
  int rounds = 0;
  int iterations = 0;          ///< synchronous iterations (== rounds * k)
  mpp::CommStats comm;         ///< aggregate messages/bytes over all ranks
  mpp::NetStats net;           ///< frame-level counters (tcp only)
  int restarts = 0;            ///< supervised world restarts (0 = clean run)
  std::uint64_t peak_rss_bytes = 0;  ///< worker RSS peak; spawned only
};

/// Stabilizes `initial` on a (ranks / ranks_x) x ranks_x process grid using
/// synchronous updates and depth-k ghost rings. The input field is not
/// modified.
///
/// Requires ranks >= 1, ranks_x >= 1 dividing ranks, halo_depth >= 1, a
/// grid with at least as many rows and columns as the process grid (every
/// rank must own at least one cell), and blocks at least halo_depth deep
/// along every split dimension.
DistributedResult stabilize_distributed(const Field& initial,
                                        const DistributedOptions& options);

}  // namespace peachy::sandpile

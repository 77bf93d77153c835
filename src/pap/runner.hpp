// The pap run loop: EASYPAP's execution engine, headless.
//
// A kernel variant is a callable computing one tile of one iteration and
// reporting whether any cell changed. The Runner drives it to a fixed point
// (or a fixed iteration count) under a chosen scheduling policy — the four
// OpenMP loop schedules students compare, plus the work-stealing task
// runtime (core/task_runtime.hpp) — with optional lazy tile activation
// (only tiles whose neighbourhood changed last iteration are recomputed —
// the paper's second assignment), optional checkerboard waves (race-free
// in-place/async kernels — "multi-wave task scheduling", §II.C), and
// optional per-task tracing (Fig. 3).
//
// The iteration loop is allocation-free in steady state: activation
// bitmaps are double-buffered and per-lane changed-tile scratch is reused
// across iterations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/task_runtime.hpp"
#include "pap/tile_grid.hpp"
#include "trace/trace.hpp"

namespace peachy::pap {

/// Scheduling policies: the OpenMP loop schedules students are asked to
/// compare (§II.B) plus the persistent work-stealing runtime.
enum class Schedule {
  kStatic,
  kStaticChunk1,
  kDynamic,
  kGuided,
  kWorkStealing,
};

/// Human-readable policy name ("static", "static,1", "dynamic", "guided",
/// "work-stealing").
std::string to_string(Schedule s);

/// Tile-level kernel: computes tile `t` of iteration `iter`; returns true
/// if any cell of the tile (or one of its neighbours, for in-place kernels)
/// changed.
using TileKernel = std::function<bool(const Tile& t, int iter)>;

/// Per-iteration hook (e.g. to swap double buffers in synchronous variants
/// or dump animation frames). Called after each completed iteration.
using IterationHook = std::function<void(int iter, bool changed)>;

/// Knobs for one run.
struct RunOptions {
  int threads = 0;          ///< 0 = use OMP default / all arena lanes
  Schedule schedule = Schedule::kDynamic;
  bool lazy = false;        ///< lazy tile activation (assignment 2)
  bool checkerboard = false;///< wave execution for async kernels
  int max_iterations = 0;   ///< 0 = run until stable
  TraceRecorder* trace = nullptr;  ///< optional task tracing
  IterationHook on_iteration;      ///< optional per-iteration callback
  TaskArena* arena = nullptr;      ///< kWorkStealing arena; nullptr = shared
};

/// Outcome of a run.
struct RunResult {
  int iterations = 0;        ///< iterations actually executed
  bool stable = false;       ///< reached a fixed point
  std::size_t tasks = 0;     ///< tile tasks executed (lazy runs fewer)
  std::int64_t elapsed_ns = 0;
  std::uint64_t steals = 0;  ///< runtime steals (kWorkStealing only)
};

/// Drives a TileKernel over a TileGrid to completion.
class Runner {
 public:
  Runner(TileGrid tiles, RunOptions options);

  const TileGrid& tiles() const { return tiles_; }
  const RunOptions& options() const { return options_; }

  /// Runs the kernel until stable or until options.max_iterations.
  RunResult run(const TileKernel& kernel);

 private:
  /// Arena backing Schedule::kWorkStealing runs.
  TaskArena& arena() const;
  /// Worker lanes a run may use (trace lane requirement and scratch width).
  int lane_count() const;

  int execute_eager(const TileKernel& kernel, int iter, std::size_t* tasks,
                    int parity_phases);
  int execute_lazy(const TileKernel& kernel, int iter, std::size_t* tasks,
                   int parity_phases);

  TileGrid tiles_;
  RunOptions options_;

  // Per-run scratch, allocated once and reused every iteration.
  std::vector<std::uint8_t> active_;       // lazy activation bitmap
  std::vector<std::uint8_t> next_active_;  // double buffer for active_
  std::vector<int> work_;                  // active tile worklist
  std::vector<std::vector<int>> changed_;  // per-lane changed tiles
};

}  // namespace peachy::pap

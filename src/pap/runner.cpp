#include "pap/runner.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>

#include "core/timer.hpp"
#include "obs/obs.hpp"

namespace peachy::pap {

std::string to_string(Schedule s) {
  switch (s) {
    case Schedule::kStatic: return "static";
    case Schedule::kStaticChunk1: return "static,1";
    case Schedule::kDynamic: return "dynamic";
    case Schedule::kGuided: return "guided";
    case Schedule::kWorkStealing: return "work-stealing";
  }
  return "?";
}

namespace {

// libgomp is not tsan-instrumented, so the barrier that ends an OpenMP
// region is invisible to tsan and a team thread's writes look unordered
// with everything the continuing thread does afterwards. These name that
// barrier: each team thread releases on `sync` at the end of the region,
// the continuing thread acquires it after.
#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
void tsan_release(void* sync) { __tsan_release(sync); }
void tsan_acquire(void* sync) { __tsan_acquire(sync); }
#else
void tsan_release(void*) {}
void tsan_acquire(void*) {}
#endif

void apply_schedule(Schedule s) {
  switch (s) {
    case Schedule::kStatic: omp_set_schedule(omp_sched_static, 0); break;
    case Schedule::kStaticChunk1: omp_set_schedule(omp_sched_static, 1); break;
    case Schedule::kDynamic: omp_set_schedule(omp_sched_dynamic, 1); break;
    case Schedule::kGuided: omp_set_schedule(omp_sched_guided, 1); break;
    case Schedule::kWorkStealing: break;  // runs on the task runtime
  }
}

// Checkerboard waves. Each colour ((ty + tx) & 1) runs as two sub-waves
// split by row parity, so any two same-wave tiles are at least one whole
// tile apart in both directions. Two colours alone are not enough:
// diagonal neighbours both spill into the two cells at their touching
// corner (the cell right of one tile's corner is the cell above the
// other's), so their in-place updates race.
inline constexpr int kWavePhases = 4;

inline bool in_wave(const Tile& t, int phase) {
  return ((t.ty + t.tx) & 1) == (phase >> 1) && (t.ty & 1) == (phase & 1);
}

// Tile span on the executing thread's tracer lane (any scheduling policy).
inline void obs_tile(std::int64_t t0, const Tile& t, int iter) {
  obs::Tracer::global().complete("tile", "pap", t0, now_ns(),
                                 {{"iter", iter}, {"y0", t.y0}, {"x0", t.x0}});
}

}  // namespace

Runner::Runner(TileGrid tiles, RunOptions options)
    : tiles_(tiles), options_(options) {
  if (options_.checkerboard) {
    // Wave execution keeps in-place kernels race-free only when no two
    // same-wave tiles can write into the same cell; with one tile between
    // them (see in_wave) that requires tiles at least 2 cells wide/tall.
    PEACHY_REQUIRE(tiles_.tile_h() >= 2 && tiles_.tile_w() >= 2,
                   "checkerboard waves need tiles >= 2x2, got "
                       << tiles_.tile_h() << "x" << tiles_.tile_w());
  }
  if (options_.trace != nullptr) {
    const int lanes_needed = lane_count();
    PEACHY_REQUIRE(options_.trace->workers() >= lanes_needed,
                   "trace has " << options_.trace->workers()
                                << " lanes, run may use " << lanes_needed);
  }
}

TaskArena& Runner::arena() const {
  return options_.arena != nullptr ? *options_.arena : TaskArena::shared();
}

int Runner::lane_count() const {
  if (options_.schedule == Schedule::kWorkStealing) {
    int lanes = static_cast<int>(arena().lanes());
    if (options_.threads > 0) lanes = std::min(lanes, options_.threads);
    return std::max(1, lanes);
  }
  return options_.threads > 0 ? options_.threads : omp_get_max_threads();
}

// Executes every tile once, wave by wave when parity_phases > 1, and
// returns whether any tile changed.
int Runner::execute_eager(const TileKernel& kernel, int iter,
                          std::size_t* tasks, int parity_phases) {
  const int n = tiles_.count();
  TraceRecorder* trace = options_.trace;
  const bool obs_on = obs::enabled();  // hoisted: one gate per iteration

  if (options_.schedule == Schedule::kWorkStealing) {
    std::atomic<int> changed_any{0};
    std::atomic<std::size_t> executed{0};
    TaskArena::ForOptions fo;
    fo.max_workers =
        options_.threads > 0 ? static_cast<std::size_t>(options_.threads) : 0;
    fo.grain = 1;  // one tile per task, the analogue of dynamic,1
    for (int phase = 0; phase < parity_phases; ++phase) {
      const bool filter = parity_phases > 1;
      arena().parallel_for(
          static_cast<std::size_t>(n),
          [&](std::size_t lo, std::size_t hi) {
            int local_changed = 0;
            std::size_t local_executed = 0;
            for (std::size_t i = lo; i < hi; ++i) {
              const Tile t = tiles_.tile(static_cast<int>(i));
              if (filter && !in_wave(t, phase)) continue;
              const std::int64_t t0 = (trace || obs_on) ? now_ns() : 0;
              local_changed |= kernel(t, iter) ? 1 : 0;
              if (trace) {
                trace->record(TaskRecord{iter, TaskArena::current_lane(),
                                         t.y0, t.x0, t.h, t.w, t0, now_ns()});
              }
              if (obs_on) obs_tile(t0, t, iter);
              ++local_executed;
            }
            if (local_changed) changed_any.store(1, std::memory_order_relaxed);
            executed.fetch_add(local_executed, std::memory_order_relaxed);
          },
          fo);
    }
    *tasks += executed.load(std::memory_order_relaxed);
    return changed_any.load(std::memory_order_relaxed);
  }

  int changed_any = 0;
  std::size_t executed = 0;
  apply_schedule(options_.schedule);
  for (int phase = 0; phase < parity_phases; ++phase) {
    const bool filter = parity_phases > 1;
#pragma omp parallel for schedule(runtime) reduction(| : changed_any) \
    reduction(+ : executed) num_threads(options_.threads > 0 ? options_.threads \
                                                             : omp_get_max_threads())
    for (int i = 0; i < n; ++i) {
      const Tile t = tiles_.tile(i);
      if (filter && !in_wave(t, phase)) continue;
      const std::int64_t t0 = (trace || obs_on) ? now_ns() : 0;
      const bool changed = kernel(t, iter);
      if (trace) {
        trace->record(TaskRecord{iter, omp_get_thread_num(), t.y0, t.x0, t.h,
                                 t.w, t0, now_ns()});
      }
      if (obs_on) obs_tile(t0, t, iter);
      changed_any |= changed ? 1 : 0;
      ++executed;
    }
  }
  *tasks += executed;
  return changed_any;
}

// Lazy execution: only tiles in the activation bitmap run; tiles that
// change wake themselves and their 4 neighbours for the next iteration.
// All scratch (worklist, per-lane changed tiles, both bitmaps) is reused
// across iterations — steady state performs no allocation.
int Runner::execute_lazy(const TileKernel& kernel, int iter,
                         std::size_t* tasks, int parity_phases) {
  const int n = tiles_.count();
  TraceRecorder* trace = options_.trace;
  const bool obs_on = obs::enabled();  // hoisted: one gate per iteration
  const bool ws = options_.schedule == Schedule::kWorkStealing;
  if (!ws) apply_schedule(options_.schedule);
  const int num_threads =
      options_.threads > 0 ? options_.threads : omp_get_max_threads();

  for (int phase = 0; phase < parity_phases; ++phase) {
    work_.clear();
    for (int i = 0; i < n; ++i) {
      if (!active_[static_cast<std::size_t>(i)]) continue;
      if (parity_phases > 1 && !in_wave(tiles_.tile(i), phase)) continue;
      work_.push_back(i);
    }
    const int m = static_cast<int>(work_.size());
    if (ws) {
      TaskArena::ForOptions fo;
      fo.max_workers = options_.threads > 0
                           ? static_cast<std::size_t>(options_.threads)
                           : 0;
      fo.grain = 1;
      arena().parallel_for(
          static_cast<std::size_t>(m),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) {
              const Tile t = tiles_.tile(work_[k]);
              const std::int64_t t0 = (trace || obs_on) ? now_ns() : 0;
              const bool changed = kernel(t, iter);
              if (trace) {
                trace->record(TaskRecord{iter, TaskArena::current_lane(),
                                         t.y0, t.x0, t.h, t.w, t0, now_ns()});
              }
              if (obs_on) obs_tile(t0, t, iter);
              if (changed)
                changed_[static_cast<std::size_t>(TaskArena::current_lane())]
                    .push_back(t.index);
            }
          },
          fo);
    } else {
#pragma omp parallel num_threads(num_threads)
      {
#pragma omp for schedule(runtime)
        for (int k = 0; k < m; ++k) {
          const Tile t = tiles_.tile(work_[static_cast<std::size_t>(k)]);
          const std::int64_t t0 = (trace || obs_on) ? now_ns() : 0;
          const bool changed = kernel(t, iter);
          if (trace) {
            trace->record(TaskRecord{iter, omp_get_thread_num(), t.y0, t.x0,
                                     t.h, t.w, t0, now_ns()});
          }
          if (obs_on) obs_tile(t0, t, iter);
          if (changed)
            changed_[static_cast<std::size_t>(omp_get_thread_num())]
                .push_back(t.index);
        }
        tsan_release(&changed_);
      }
      tsan_acquire(&changed_);
    }
    *tasks += static_cast<std::size_t>(m);
  }

  // Build the next activation set serially (cheap: O(changed tiles)) into
  // the double buffer, then swap.
  std::fill(next_active_.begin(), next_active_.end(), 0);
  int changed_any = 0;
  int nb[4];
  for (auto& lane : changed_) {
    for (int idx : lane) {
      changed_any = 1;
      next_active_[static_cast<std::size_t>(idx)] = 1;
      const int count = tiles_.neighbors(idx, nb);
      for (int j = 0; j < count; ++j)
        next_active_[static_cast<std::size_t>(nb[j])] = 1;
    }
    lane.clear();
  }
  active_.swap(next_active_);
  return changed_any;
}

RunResult Runner::run(const TileKernel& kernel) {
  PEACHY_CHECK(kernel != nullptr);
  RunResult result;
  WallTimer timer;

  const bool ws = options_.schedule == Schedule::kWorkStealing;
  RuntimeCounters before;
  if (ws) before = arena().counters();

  const int parity_phases = options_.checkerboard ? kWavePhases : 1;
  if (options_.lazy) {
    const std::size_t n = static_cast<std::size_t>(tiles_.count());
    active_.assign(n, 1);
    next_active_.assign(n, 0);
    work_.clear();
    work_.reserve(n);
    changed_.resize(static_cast<std::size_t>(lane_count()));
  }

  for (int iter = 0;; ++iter) {
    if (options_.max_iterations > 0 && iter >= options_.max_iterations) break;
    obs::Span span("pap.iteration", "pap");
    const std::size_t tasks_before = result.tasks;
    const int changed =
        options_.lazy
            ? execute_lazy(kernel, iter, &result.tasks, parity_phases)
            : execute_eager(kernel, iter, &result.tasks, parity_phases);
    span.arg("iter", iter);
    span.arg("changed", changed);
    span.arg("tasks", static_cast<std::int64_t>(result.tasks - tasks_before));
    ++result.iterations;
    if (options_.on_iteration) options_.on_iteration(iter, changed != 0);
    if (!changed) {
      result.stable = true;
      break;
    }
  }

  if (ws) result.steals = (arena().counters() - before).steals;
  result.elapsed_ns = timer.elapsed_ns();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    static obs::Counter& runs = reg.counter("pap.runs");
    static obs::Counter& iters = reg.counter("pap.iterations");
    static obs::Counter& tile_tasks = reg.counter("pap.tile_tasks");
    static obs::Histogram& iter_ns = reg.histogram("pap.run_ns");
    runs.add(1);
    iters.add(static_cast<std::uint64_t>(result.iterations));
    tile_tasks.add(result.tasks);
    iter_ns.observe(result.elapsed_ns);
  }
  return result;
}

}  // namespace peachy::pap

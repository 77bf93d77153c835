// Microbenchmark for the work-stealing task runtime: fork/join dispatch
// overhead against the mutex-queue thread pool it replaced, a grain sweep,
// and steal rates under an unbalanced load. The legacy pool is embedded
// here verbatim-in-spirit (FIFO queue, one mutex, condition variable,
// futures per chunk); the old design only survives as this baseline.
//
// Reported configurations, all at 8 lanes:
//  * arena          — persistent TaskArena, chunks dealt into deques
//  * legacy         — persistent mutex-queue pool, one future per chunk
//  * legacy/phase   — pool constructed + torn down per dispatch (exactly
//                     what mr::Job did per map/reduce phase)
//
// Writes out/BENCH_runtime.json for regression tracking.
#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/table.hpp"
#include "core/task_runtime.hpp"
#include "core/timer.hpp"

namespace {

using namespace peachy;

// The pre-runtime ThreadPool, kept as the comparison baseline.
class LegacyPool {
 public:
  explicit LegacyPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~LegacyPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  template <typename F>
  std::future<void> submit(F&& f) {
    auto task = std::make_shared<std::packaged_task<void()>>(std::forward<F>(f));
    std::future<void> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    const std::size_t chunks = std::min(n, workers_.size() * 4);
    const std::size_t chunk = (n + chunks - 1) / chunks;
    std::vector<std::future<void>> futs;
    futs.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      if (lo >= hi) break;
      futs.push_back(submit([lo, hi, &fn] {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      }));
    }
    for (auto& f : futs) f.get();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Median wall time of `reps` calls to once(), in ns per call.
template <typename F>
double median_ns(int reps, F&& once) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    once();
    samples.push_back(static_cast<double>(timer.elapsed_ns()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kTasks = 64;  // tiles of a typical small iteration
  constexpr int kReps = 300;
  constexpr int kPhaseReps = 40;  // pool construction is slow; fewer reps

  TaskArena arena(kLanes - 1);  // 7 workers + the caller = 8 lanes
  const auto noop = [](std::size_t) {};

  // Warm up both schedulers (first dispatch pays page faults and wakeups).
  for (int r = 0; r < 20; ++r)
    arena.parallel_for_index(kTasks, noop, {.grain = 1});

  const double arena_ns = median_ns(kReps, [&] {
    arena.parallel_for_index(kTasks, noop, {.grain = 1});
  });

  double legacy_ns = 0;
  {
    LegacyPool pool(kLanes);
    for (int r = 0; r < 20; ++r) pool.parallel_for(kTasks, noop);
    legacy_ns = median_ns(kReps, [&] { pool.parallel_for(kTasks, noop); });
  }

  const double phase_ns = median_ns(kPhaseReps, [&] {
    LegacyPool pool(kLanes);
    pool.parallel_for(kTasks, noop);
  });

  TextTable dispatch({"scheduler", "dispatch us", "vs arena"});
  dispatch.row({"arena", TextTable::num(arena_ns / 1e3, 2), "1.00x"});
  dispatch.row({"legacy", TextTable::num(legacy_ns / 1e3, 2),
                TextTable::num(legacy_ns / arena_ns, 2) + "x"});
  dispatch.row({"legacy/phase", TextTable::num(phase_ns / 1e3, 2),
                TextTable::num(phase_ns / arena_ns, 2) + "x"});
  std::cout << "fork/join dispatch, " << kLanes << " lanes, " << kTasks
            << " empty tasks (median of " << kReps << ")\n";
  dispatch.print(std::cout);

  // Grain sweep over an unbalanced load: every 64th index is ~500x heavier.
  const std::size_t kN = 4096;
  const auto work = [](std::size_t i) {
    const std::size_t reps = (i % 64 == 0) ? 5000 : 10;
    volatile std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) acc = acc + (i ^ r);
  };
  std::cout << "\ngrain sweep, unbalanced load, n=" << kN << "\n";
  TextTable sweep({"grain", "wall us", "chunks", "steals"});
  json::Array grain_rows;
  for (const std::size_t grain : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{512}}) {
    arena.reset_counters();
    const double ns =
        median_ns(20, [&] { arena.parallel_for_index(kN, work, {.grain = grain}); });
    const RuntimeCounters c = arena.counters();
    sweep.row({TextTable::num(static_cast<std::int64_t>(grain)),
               TextTable::num(ns / 1e3, 1),
               TextTable::num(static_cast<std::int64_t>(c.tasks)),
               TextTable::num(static_cast<std::int64_t>(c.steals))});
    json::Object row;
    row["grain"] = json::Value(static_cast<std::int64_t>(grain));
    row["wall_ns"] = json::Value(ns);
    row["tasks"] = json::Value(static_cast<std::int64_t>(c.tasks));
    row["steals"] = json::Value(static_cast<std::int64_t>(c.steals));
    grain_rows.push_back(json::Value(std::move(row)));
  }
  sweep.print(std::cout);

  json::Object doc;
  doc["lanes"] = json::Value(static_cast<std::int64_t>(kLanes));
  doc["tasks_per_dispatch"] = json::Value(static_cast<std::int64_t>(kTasks));
  doc["arena_dispatch_ns"] = json::Value(arena_ns);
  doc["legacy_dispatch_ns"] = json::Value(legacy_ns);
  doc["legacy_per_phase_ns"] = json::Value(phase_ns);
  doc["legacy_vs_arena"] = json::Value(legacy_ns / arena_ns);
  doc["legacy_per_phase_vs_arena"] = json::Value(phase_ns / arena_ns);
  doc["grain_sweep"] = json::Value(std::move(grain_rows));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_runtime.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_runtime.json\n";
  return 0;
}

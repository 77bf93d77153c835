// Persistent work-stealing task runtime shared by every explicit-task
// execution layer (pap::Runner's work-stealing schedule, the MapReduce
// engine).
//
// Design (see DESIGN.md "Task runtime"):
//  * A TaskArena spawns its worker threads ONCE; phases reuse them instead
//    of paying a pool construction/teardown per map or reduce phase.
//  * parallel_for pre-splits [0, n) into contiguous chunks and deals them
//    round-robin into per-lane Chase-Lev-style deques. A lane pops its own
//    deque LIFO; when empty it steals FIFO from the other lanes, so idle
//    lanes drain whichever lane got the expensive tiles.
//  * The calling thread is lane 0 and participates, which makes
//    max_workers == 1 a strictly serial, synchronization-free loop (the
//    determinism baseline the MapReduce tests rely on) and makes nested
//    parallel_for calls legal (they degrade to inline serial execution).
//  * Exceptions thrown by a body are captured once, remaining chunks are
//    skipped, and the first exception is rethrown on the caller.
//  * Per-lane task/steal counters are aggregated by counters() so traces
//    and benchmarks can tell scheduling policies apart.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace peachy {

/// Aggregated runtime activity counters (monotonic since construction or
/// the last reset_counters()).
struct RuntimeCounters {
  std::uint64_t tasks = 0;       ///< chunks executed
  std::uint64_t steals = 0;      ///< chunks taken from another lane's deque
  std::uint64_t dispatches = 0;  ///< parallel_for calls that woke workers
};

inline RuntimeCounters operator-(const RuntimeCounters& a,
                                 const RuntimeCounters& b) {
  return {a.tasks - b.tasks, a.steals - b.steals, a.dispatches - b.dispatches};
}

/// Knobs for one TaskArena::parallel_for call. (Namespace scope so it can
/// be a default argument inside TaskArena — GCC rejects nested aggregates
/// with member initializers there.)
struct ForOptions {
  std::size_t max_workers = 0;  ///< cap on participating lanes; 0 = all
  std::size_t grain = 0;        ///< min indices per chunk; 0 = auto
};

/// A persistent team of worker threads executing chunked parallel loops by
/// work stealing.
class TaskArena {
 public:
  /// Range body: fn(begin, end) over a contiguous index chunk.
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  using ForOptions = ::peachy::ForOptions;

  /// Spawns `workers` (>= 1) background threads; the caller of parallel_for
  /// always participates as one extra lane.
  explicit TaskArena(std::size_t workers);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// The process-wide arena (spawned on first use, sized from
  /// hardware_concurrency, overridable with PEACHY_ARENA_THREADS).
  static TaskArena& shared();

  std::size_t workers() const { return threads_.size(); }
  /// Execution lanes = workers() background threads + the calling thread.
  std::size_t lanes() const { return threads_.size() + 1; }

  /// Lane index (0 = caller) of the loop body currently executing on this
  /// thread, or -1 outside any arena loop. Stable for the whole body call —
  /// usable as a scratch-slot or trace-lane index.
  static int current_lane();

  /// Runs body over [0, n) in chunks and blocks until every chunk finished.
  /// Rethrows the first exception thrown by any chunk (each chunk runs at
  /// most once; chunks after a failure are skipped).
  void parallel_for(std::size_t n, const RangeBody& body, ForOptions opts = {});

  /// Index-at-a-time convenience wrapper over parallel_for.
  void parallel_for_index(std::size_t n,
                          const std::function<void(std::size_t)>& fn,
                          ForOptions opts = {});

  RuntimeCounters counters() const;
  void reset_counters();

 private:
  // Fixed-array Chase-Lev-style deque. push() only runs during single-
  // threaded job setup (before workers are released), so the buffer itself
  // needs no atomicity — top/bottom arbitrate take vs steal.
  struct alignas(64) Deque {
    std::atomic<std::int64_t> top{0};
    std::atomic<std::int64_t> bottom{0};
    std::vector<std::uint64_t> buffer;

    void reset(std::size_t capacity);
    void push(std::uint64_t chunk);     // setup phase only
    bool take(std::uint64_t* chunk);    // owner, LIFO end
    bool steal(std::uint64_t* chunk);   // thieves, FIFO end
  };

  struct alignas(64) LaneCounters {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
  };

  void worker_loop(std::size_t lane);
  void run_job(std::size_t lane);
  void execute_chunk(std::size_t lane, std::uint64_t chunk);
  void run_serial(std::size_t n, const RangeBody& body, std::size_t chunk_size);

  std::vector<std::thread> threads_;
  std::vector<Deque> deques_;  // one per lane, lane 0 = caller
  std::vector<LaneCounters> lane_counters_;
  std::atomic<std::uint64_t> dispatches_{0};

  // Job release: workers sleep on cv_ until epoch_ advances (or shutdown).
  // The same mutex gates job entry (job_live_, active_) and completion, so
  // a straggler waking after the job finished can never touch deques that
  // the next job is re-dealing.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t job_participants_ = 0;  // lanes allowed into the current job
  const RangeBody* job_body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunk_size_ = 1;
  bool job_live_ = false;
  int active_ = 0;  // worker lanes currently inside run_job
  bool stopping_ = false;

  // Serializes parallel_for callers (one chunked job in flight at a time).
  std::mutex for_mutex_;

  // Completion latch for the job in flight.
  std::atomic<std::int64_t> chunks_left_{0};

  // First exception thrown by a chunk of the job in flight.
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace peachy

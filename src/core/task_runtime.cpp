#include "core/task_runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "obs/obs.hpp"

namespace peachy {

namespace {

// Lane index of the arena loop body running on this thread; -1 outside.
thread_local int tl_lane = -1;

// Registry handles resolved once; the metrics themselves are lock-free.
obs::Counter& obs_dispatches() {
  static obs::Counter& c = obs::Registry::global().counter("arena.dispatches");
  return c;
}
obs::Counter& obs_chunks() {
  static obs::Counter& c = obs::Registry::global().counter("arena.chunks");
  return c;
}
obs::Counter& obs_steals() {
  static obs::Counter& c = obs::Registry::global().counter("arena.steals");
  return c;
}
obs::Counter& obs_idle_ns() {
  static obs::Counter& c =
      obs::Registry::global().counter("arena.lane_idle_ns");
  return c;
}

std::size_t shared_worker_count() {
  if (const char* env = std::getenv("PEACHY_ARENA_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<std::size_t>(hw - 1) : 1;
}

}  // namespace

// --- Deque ------------------------------------------------------------------

void TaskArena::Deque::reset(std::size_t capacity) {
  if (buffer.size() < capacity) buffer.resize(capacity);
  top.store(0, std::memory_order_relaxed);
  bottom.store(0, std::memory_order_relaxed);
}

void TaskArena::Deque::push(std::uint64_t chunk) {
  const std::int64_t b = bottom.load(std::memory_order_relaxed);
  buffer[static_cast<std::size_t>(b)] = chunk;
  bottom.store(b + 1, std::memory_order_relaxed);
}

bool TaskArena::Deque::take(std::uint64_t* chunk) {
  const std::int64_t b = bottom.load(std::memory_order_relaxed) - 1;
  bottom.store(b, std::memory_order_seq_cst);
  std::int64_t t = top.load(std::memory_order_seq_cst);
  if (t <= b) {
    *chunk = buffer[static_cast<std::size_t>(b)];
    if (t == b) {
      // Last element: arbitrate with thieves through top.
      const bool won =
          top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst);
      bottom.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }
  bottom.store(b + 1, std::memory_order_relaxed);  // was empty; restore
  return false;
}

bool TaskArena::Deque::steal(std::uint64_t* chunk) {
  std::int64_t t = top.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom.load(std::memory_order_seq_cst);
  if (t >= b) return false;
  const std::uint64_t v = buffer[static_cast<std::size_t>(t)];
  if (!top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst))
    return false;  // lost the race; the chunk went to another lane
  *chunk = v;
  return true;
}

// --- TaskArena --------------------------------------------------------------

TaskArena::TaskArena(std::size_t workers)
    : deques_(workers + 1), lane_counters_(workers + 1) {
  PEACHY_REQUIRE(workers >= 1, "task arena needs >= 1 worker thread");
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
}

TaskArena::~TaskArena() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

TaskArena& TaskArena::shared() {
  static TaskArena arena(shared_worker_count());
  return arena;
}

int TaskArena::current_lane() { return tl_lane; }

void TaskArena::execute_chunk(std::size_t lane, std::uint64_t chunk) {
  const std::size_t lo = static_cast<std::size_t>(chunk) * job_chunk_size_;
  const std::size_t hi = std::min(job_n_, lo + job_chunk_size_);
  if (!failed_.load(std::memory_order_relaxed)) {
    try {
      (*job_body_)(lo, hi);
    } catch (...) {
      std::lock_guard lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  lane_counters_[lane].tasks.fetch_add(1, std::memory_order_relaxed);
  if (chunks_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard lock(mutex_);
    }
    done_cv_.notify_all();
  }
}

void TaskArena::run_job(std::size_t lane) {
  const int prev_lane = tl_lane;
  tl_lane = static_cast<int>(lane);
  std::uint64_t chunk = 0;
  Deque& own = deques_[lane];
  while (own.take(&chunk)) execute_chunk(lane, chunk);
  // Own deque drained: steal FIFO from the other participants. A failed
  // sweep means every remaining chunk is either executing or guaranteed to
  // be drained by its owner, so exiting early never strands work.
  const std::size_t p = job_participants_;
  bool found = true;
  while (found) {
    found = false;
    for (std::size_t i = 1; i < p; ++i) {
      Deque& victim = deques_[(lane + i) % p];
      while (victim.steal(&chunk)) {
        lane_counters_[lane].steals.fetch_add(1, std::memory_order_relaxed);
        execute_chunk(lane, chunk);
        found = true;
      }
    }
  }
  tl_lane = prev_lane;
}

void TaskArena::worker_loop(std::size_t worker_index) {
  const std::size_t lane = worker_index;  // lane 0 is reserved for callers
  std::uint64_t seen = 0;
  for (;;) {
    bool joined = false;
    {
      std::unique_lock lock(mutex_);
      // Idle accounting: the time a worker sleeps between jobs. Gated and
      // measured around the wait only, so the armed path costs two clock
      // reads per wake-up and the disabled path one relaxed load.
      const std::int64_t idle_from = obs::enabled() ? now_ns() : 0;
      cv_.wait(lock, [&] { return stopping_ || epoch_ != seen; });
      if (idle_from != 0)
        obs_idle_ns().add(static_cast<std::uint64_t>(now_ns() - idle_from));
      if (epoch_ == seen) return;  // stopping, no fresh job
      seen = epoch_;
      if (lane < job_participants_ && job_live_) {
        ++active_;
        joined = true;
      }
    }
    if (joined) {
      run_job(lane);
      {
        std::lock_guard lock(mutex_);
        --active_;
      }
      done_cv_.notify_all();
    }
  }
}

void TaskArena::run_serial(std::size_t n, const RangeBody& body,
                           std::size_t chunk_size) {
  // Inline execution on the calling thread: the max_workers == 1 path and
  // nested parallel_for calls. No synchronization, deterministic order.
  const std::size_t lane = tl_lane >= 0 ? static_cast<std::size_t>(tl_lane) : 0;
  const int prev_lane = tl_lane;
  tl_lane = static_cast<int>(lane);
  std::size_t chunks = 0;
  try {
    for (std::size_t lo = 0; lo < n; lo += chunk_size) {
      body(lo, std::min(n, lo + chunk_size));
      ++chunks;
    }
  } catch (...) {
    tl_lane = prev_lane;
    lane_counters_[lane].tasks.fetch_add(chunks + 1,
                                         std::memory_order_relaxed);
    throw;
  }
  tl_lane = prev_lane;
  lane_counters_[lane].tasks.fetch_add(chunks, std::memory_order_relaxed);
}

void TaskArena::parallel_for(std::size_t n, const RangeBody& body,
                             ForOptions opts) {
  if (n == 0) return;
  PEACHY_CHECK(body != nullptr);
  std::size_t p = opts.max_workers > 0 ? std::min(opts.max_workers, lanes())
                                       : lanes();
  const std::size_t chunk_size =
      opts.grain > 0 ? opts.grain
                     : std::max<std::size_t>(1, (n + p * 8 - 1) / (p * 8));
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  p = std::min(p, chunks);
  if (p <= 1 || tl_lane >= 0) {
    run_serial(n, body, chunk_size);
    return;
  }

  std::lock_guard for_lock(for_mutex_);
  const bool obs_on = obs::enabled();
  std::uint64_t steals_before = 0;
  if (obs_on) {
    for (const LaneCounters& lc : lane_counters_)
      steals_before += lc.steals.load(std::memory_order_relaxed);
    obs::Tracer::global().begin("arena.parallel_for", "arena");
  }
  // Deal chunks round-robin into the first p lane deques (single-threaded:
  // workers are still asleep or finishing an older epoch behind mutex_).
  const std::size_t per_lane = (chunks + p - 1) / p;
  for (std::size_t lane = 0; lane < p; ++lane) deques_[lane].reset(per_lane);
  for (std::size_t c = 0; c < chunks; ++c) deques_[c % p].push(c);

  chunks_left_.store(static_cast<std::int64_t>(chunks),
                     std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(error_mutex_);
    error_ = nullptr;
  }
  {
    std::lock_guard lock(mutex_);
    job_body_ = &body;
    job_n_ = n;
    job_chunk_size_ = chunk_size;
    job_participants_ = p;
    job_live_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  dispatches_.fetch_add(1, std::memory_order_relaxed);

  run_job(0);  // the caller is lane 0 and always participates

  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return chunks_left_.load(std::memory_order_acquire) == 0 && active_ == 0;
    });
    job_live_ = false;  // stragglers waking later must not touch the deques
    job_body_ = nullptr;
  }
  if (obs_on) {
    std::uint64_t steals_after = 0;
    for (const LaneCounters& lc : lane_counters_)
      steals_after += lc.steals.load(std::memory_order_relaxed);
    obs_dispatches().add(1);
    obs_chunks().add(chunks);
    obs_steals().add(steals_after - steals_before);
    obs::Tracer::global().end({{"n", static_cast<std::int64_t>(n)},
                               {"chunks", static_cast<std::int64_t>(chunks)},
                               {"lanes", static_cast<std::int64_t>(p)},
                               {"steals", static_cast<std::int64_t>(
                                              steals_after - steals_before)}});
  }
  if (failed_.load(std::memory_order_relaxed)) {
    std::lock_guard lock(error_mutex_);
    std::exception_ptr err = error_;
    error_ = nullptr;
    if (err) std::rethrow_exception(err);
  }
}

void TaskArena::parallel_for_index(std::size_t n,
                                   const std::function<void(std::size_t)>& fn,
                                   ForOptions opts) {
  PEACHY_CHECK(fn != nullptr);
  parallel_for(
      n,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      opts);
}

RuntimeCounters TaskArena::counters() const {
  RuntimeCounters total;
  for (const LaneCounters& lc : lane_counters_) {
    total.tasks += lc.tasks.load(std::memory_order_relaxed);
    total.steals += lc.steals.load(std::memory_order_relaxed);
  }
  total.dispatches = dispatches_.load(std::memory_order_relaxed);
  return total;
}

void TaskArena::reset_counters() {
  for (LaneCounters& lc : lane_counters_) {
    lc.tasks.store(0, std::memory_order_relaxed);
    lc.steals.store(0, std::memory_order_relaxed);
  }
  dispatches_.store(0, std::memory_order_relaxed);
}

}  // namespace peachy

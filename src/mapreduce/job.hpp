// A MapReduce engine (paper §III) enforcing the paradigm's three phases:
// map -> group-by-keys -> reduce, exactly the constraints the assignment
// wants students to feel ("it is difficult to reformulate a given problem
// under the severe constraints of this three-step approach").
//
// The engine is typed and in-memory, with the Hadoop execution structure:
// inputs are split across map tasks, map outputs are partitioned by a
// (pluggable) partitioner, each partition is sorted and grouped by key, and
// reducers run one partition each. Map and reduce phases run on the
// process-wide work-stealing TaskArena (no per-phase thread spawning). An
// optional combiner runs after each map task on its local output.
//
// Shuffle layout: each map task stores its output flat — one contiguous
// record vector grouped by partition with an offsets table, each partition
// slice key-sorted by the map task itself. A reducer merges its pre-sorted
// per-task runs (stable across task order) instead of re-sorting the whole
// partition.
//
// Output determinism: partitions are concatenated in partition order and
// each partition is key-sorted with per-key values in (map task, emit)
// order, so a job's output is a pure function of its input — asserted by
// tests regardless of worker count or arena width.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/task_runtime.hpp"
#include "core/timer.hpp"
#include "obs/obs.hpp"

namespace peachy::mr {

/// Collects key/value pairs emitted by a mapper, combiner or reducer.
template <typename K, typename V>
class Emitter {
 public:
  void emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }

  std::vector<std::pair<K, V>>& pairs() { return pairs_; }
  const std::vector<std::pair<K, V>>& pairs() const { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// Job execution knobs.
struct JobConfig {
  int map_workers = 1;     ///< concurrency cap for the map phase
  int reduce_workers = 1;  ///< concurrency cap for the reduce phase
  int map_tasks = 0;       ///< input splits; 0 = 4x map_workers
  int partitions = 0;      ///< reduce partitions; 0 = reduce_workers
  /// Hadoop-style task containment: a map/reduce task that throws is
  /// re-dispatched (a fresh arena dispatch, so typically a different lane)
  /// up to this many extra attempts before the job fails. A retried task
  /// re-runs the same split from scratch, so output determinism survives.
  int max_task_retries = 0;
  TaskArena* arena = nullptr;  ///< nullptr = the process-shared arena
};

/// Phase counters (the numbers Hadoop prints after a job).
struct JobCounters {
  std::size_t map_inputs = 0;
  std::size_t map_outputs = 0;     ///< records emitted by mappers
  std::size_t combine_outputs = 0; ///< records after combiners (== map_outputs
                                   ///< when no combiner is configured)
  std::size_t groups = 0;          ///< distinct keys seen by reducers
  std::size_t reduce_outputs = 0;
  std::size_t shuffle_records = 0; ///< records moved into partitions
  /// Approximate payload bytes moved by the shuffle (sizeof for trivially
  /// copyable keys/values, content bytes for strings). The in-process
  /// engine moves no real bytes; this is the figure a distributed shuffle
  /// of the same job would put on the wire, and what bench/skew tooling
  /// compares against dmr's measured counts.
  std::size_t shuffle_bytes = 0;
  /// Records per partition (index = partition id) — the skew profile. A
  /// hot key shows up here as one entry dwarfing the rest.
  std::vector<std::size_t> partition_records;
  std::size_t map_task_retries = 0;    ///< re-dispatched map tasks
  std::size_t reduce_task_retries = 0; ///< re-dispatched reduce tasks
  /// Task ids ("map:3", "reduce:1") that failed every attempt. Non-empty
  /// only on a failed job — run() throws right after filling it.
  std::vector<std::string> failed_tasks;
};

/// Default partitioner: std::hash of the key modulo partition count.
/// Key types without std::hash may still be used with a single partition
/// (or by supplying a custom partitioner).
template <typename K>
struct HashPartitioner {
  int operator()(const K& key, int partitions) const {
    if constexpr (requires(const K& k) { std::hash<K>{}(k); }) {
      return static_cast<int>(std::hash<K>{}(key) %
                              static_cast<std::size_t>(partitions));
    } else {
      PEACHY_REQUIRE(partitions == 1,
                     "key type has no std::hash; supply Job::partitioner() "
                     "to use more than one partition");
      (void)key;
      return 0;
    }
  }
};

namespace detail {

/// Approximate payload footprint of one shuffled component — the unit
/// JobCounters::shuffle_bytes is measured in.
template <typename T>
std::size_t approx_bytes(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v.size();
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    return sizeof(T);
  } else {
    return sizeof(T);  // best effort for exotic key/value types
  }
}

/// Groups `pairs` by key (stable sort, emit order preserved within a key)
/// and applies `combiner` per group — the Hadoop combiner contract. Shared
/// by the in-process engine and the distributed one (dmr), which must
/// pre-aggregate identically for their outputs to stay byte-identical.
template <typename K2, typename V2, typename Combiner>
std::vector<std::pair<K2, V2>> combine_pairs(std::vector<std::pair<K2, V2>> pairs,
                                             const Combiner& combiner) {
  std::stable_sort(
      pairs.begin(), pairs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  Emitter<K2, V2> emitter;
  std::size_t i = 0;
  while (i < pairs.size()) {
    std::size_t j = i;
    std::vector<V2> values;
    while (j < pairs.size() && !(pairs[i].first < pairs[j].first) &&
           !(pairs[j].first < pairs[i].first)) {
      values.push_back(std::move(pairs[j].second));
      ++j;
    }
    combiner(pairs[i].first, values, emitter);
    i = j;
  }
  return std::move(emitter.pairs());
}

}  // namespace detail

/// A typed MapReduce job: K1/V1 input records, K2/V2 intermediate records,
/// K3/V3 output records.
///
/// Phase signatures:
///   mapper  : void(const K1&, const V1&, Emitter<K2, V2>&)
///   combiner: void(const K2&, const std::vector<V2>&, Emitter<K2, V2>&)
///   reducer : void(const K2&, const std::vector<V2>&, Emitter<K3, V3>&)
template <typename K1, typename V1, typename K2, typename V2, typename K3,
          typename V3>
class Job {
 public:
  using Mapper = std::function<void(const K1&, const V1&, Emitter<K2, V2>&)>;
  using Combiner =
      std::function<void(const K2&, const std::vector<V2>&, Emitter<K2, V2>&)>;
  using Reducer =
      std::function<void(const K2&, const std::vector<V2>&, Emitter<K3, V3>&)>;
  using Partitioner = std::function<int(const K2&, int)>;
  using ValueComparator = std::function<bool(const V2&, const V2&)>;

  Job& mapper(Mapper m) { mapper_ = std::move(m); return *this; }
  Job& combiner(Combiner c) { combiner_ = std::move(c); return *this; }
  Job& reducer(Reducer r) { reducer_ = std::move(r); return *this; }
  Job& partitioner(Partitioner p) { partitioner_ = std::move(p); return *this; }
  /// Secondary sort: orders each key group's values by `cmp` before the
  /// reducer sees them (Hadoop's secondary-sort idiom). Without it, values
  /// arrive in deterministic (map task, emit) order.
  Job& sort_values(ValueComparator cmp) {
    value_cmp_ = std::move(cmp);
    return *this;
  }
  Job& config(JobConfig cfg) { config_ = cfg; return *this; }

  const JobCounters& counters() const { return counters_; }

  /// Runs the job over `inputs` and returns all output records
  /// (partitions in order, keys sorted within each partition).
  std::vector<std::pair<K3, V3>> run(
      const std::vector<std::pair<K1, V1>>& inputs) {
    PEACHY_REQUIRE(mapper_ != nullptr, "job has no mapper");
    PEACHY_REQUIRE(reducer_ != nullptr, "job has no reducer");
    PEACHY_REQUIRE(config_.map_workers >= 1 && config_.reduce_workers >= 1,
                   "worker counts must be >= 1");
    counters_ = JobCounters{};
    counters_.map_inputs = inputs.size();

    const int splits = config_.map_tasks > 0 ? config_.map_tasks
                                             : 4 * config_.map_workers;
    const int partitions =
        config_.partitions > 0 ? config_.partitions : config_.reduce_workers;
    Partitioner partition =
        partitioner_ ? partitioner_ : Partitioner(HashPartitioner<K2>{});
    TaskArena& arena =
        config_.arena != nullptr ? *config_.arena : TaskArena::shared();

    // --- Map phase: one task per split. Each task lays its output out flat:
    // one contiguous record vector grouped by partition (offsets table says
    // where each partition's slice starts), every slice key-sorted. The
    // counting sort that builds the layout and the per-slice stable_sort
    // both preserve emit order, so a slice holds this task's records for
    // that partition in key order with ties in emit order.
    struct TaskOutput {
      std::vector<std::pair<K2, V2>> records;
      std::vector<std::size_t> offsets;  // partitions + 1 entries
    };
    obs::Span job_span("mr.job", "mr");
    job_span.arg("inputs", static_cast<std::int64_t>(inputs.size()));
    job_span.arg("splits", splits);
    job_span.arg("partitions", partitions);
    obs::Span map_span("mr.map", "mr");
    const int task_retries = std::max(0, config_.max_task_retries);
    std::vector<TaskOutput> task_out(static_cast<std::size_t>(splits));
    std::vector<std::size_t> map_out(static_cast<std::size_t>(splits), 0);
    std::vector<std::size_t> comb_out(static_cast<std::size_t>(splits), 0);
    const auto run_map_split = [&](std::size_t s) {
          // A retried split starts from scratch, so its output is identical
          // to what a first-attempt success would have produced.
          task_out[s] = TaskOutput{};
          map_out[s] = 0;
          comb_out[s] = 0;
          const std::int64_t split_t0 = obs::enabled() ? now_ns() : 0;
          const std::size_t lo = inputs.size() * s / splits;
          const std::size_t hi = inputs.size() * (s + 1) / splits;
          Emitter<K2, V2> emitter;
          for (std::size_t i = lo; i < hi; ++i)
            mapper_(inputs[i].first, inputs[i].second, emitter);
          map_out[s] = emitter.pairs().size();

          std::vector<std::pair<K2, V2>> intermediate =
              combiner_ ? detail::combine_pairs(std::move(emitter.pairs()),
                                                combiner_)
                        : std::move(emitter.pairs());
          comb_out[s] = intermediate.size();

          TaskOutput& out = task_out[s];
          const std::size_t m = intermediate.size();
          std::vector<int> pid(m);
          out.offsets.assign(static_cast<std::size_t>(partitions) + 1, 0);
          for (std::size_t i = 0; i < m; ++i) {
            const int p = partition(intermediate[i].first, partitions);
            PEACHY_REQUIRE(
                p >= 0 && p < partitions,
                "partitioner returned " << p << " of " << partitions);
            pid[i] = p;
            ++out.offsets[static_cast<std::size_t>(p) + 1];
          }
          std::partial_sum(out.offsets.begin(), out.offsets.end(),
                           out.offsets.begin());

          // Stable counting-sort scatter via an index permutation (avoids
          // requiring default-constructible records).
          std::vector<std::size_t> cursor(out.offsets.begin(),
                                          out.offsets.end() - 1);
          std::vector<std::size_t> order(m);
          for (std::size_t i = 0; i < m; ++i)
            order[cursor[static_cast<std::size_t>(pid[i])]++] = i;
          out.records.reserve(m);
          for (std::size_t k = 0; k < m; ++k)
            out.records.push_back(std::move(intermediate[order[k]]));
          for (int p = 0; p < partitions; ++p) {
            auto first = out.records.begin() +
                         static_cast<std::ptrdiff_t>(
                             out.offsets[static_cast<std::size_t>(p)]);
            auto last = out.records.begin() +
                        static_cast<std::ptrdiff_t>(
                            out.offsets[static_cast<std::size_t>(p) + 1]);
            std::stable_sort(first, last, [](const auto& a, const auto& b) {
              return a.first < b.first;
            });
          }
          if (split_t0 != 0) {
            obs::Tracer::global().complete(
                "mr.map_split", "mr", split_t0, now_ns(),
                {{"split", static_cast<std::int64_t>(s)},
                 {"records", static_cast<std::int64_t>(m)}});
          }
    };
    run_tasks_with_retries("map", static_cast<std::size_t>(splits),
                           task_retries, config_.map_workers, arena,
                           run_map_split, counters_.map_task_retries);
    for (int s = 0; s < splits; ++s) {
      counters_.map_outputs += map_out[static_cast<std::size_t>(s)];
      counters_.combine_outputs += comb_out[static_cast<std::size_t>(s)];
    }
    map_span.arg("map_outputs",
                 static_cast<std::int64_t>(counters_.map_outputs));
    map_span.close();

    // --- Shuffle + merge + reduce, one partition at a time. Each map task
    // contributes an already key-sorted run; a k-way merge that breaks key
    // ties by task index replaces the old whole-partition stable_sort and
    // yields the identical (map task, emit order) value ordering.
    obs::Span reduce_span("mr.reduce", "mr");
    std::vector<std::vector<std::pair<K3, V3>>> outputs(
        static_cast<std::size_t>(partitions));
    std::vector<std::size_t> group_counts(static_cast<std::size_t>(partitions),
                                          0);
    std::vector<std::size_t> shuffled(static_cast<std::size_t>(partitions), 0);
    std::vector<std::size_t> shuffled_bytes(
        static_cast<std::size_t>(partitions), 0);
    const auto run_reduce_partition = [&](std::size_t p) {
          outputs[p].clear();  // a retried partition starts from scratch
          group_counts[p] = 0;
          shuffled[p] = 0;
          shuffled_bytes[p] = 0;
          const std::int64_t part_t0 = obs::enabled() ? now_ns() : 0;
          struct Run {
            std::vector<std::pair<K2, V2>>* records;
            std::size_t pos, end;
          };
          std::vector<Run> runs;
          std::size_t total = 0;
          for (TaskOutput& t : task_out) {
            const std::size_t lo = t.offsets[p];
            const std::size_t hi = t.offsets[p + 1];
            if (lo < hi) {
              runs.push_back(Run{&t.records, lo, hi});
              total += hi - lo;
            }
          }
          shuffled[p] = total;

          std::vector<std::pair<K2, V2>> part;
          part.reserve(total);
          while (part.size() < total) {
            // Lowest key wins; on ties the earliest run (lowest map task
            // index) wins — the merge is stable across tasks.
            Run* best = nullptr;
            for (Run& r : runs) {
              if (r.pos == r.end) continue;
              if (best == nullptr ||
                  (*r.records)[r.pos].first < (*best->records)[best->pos].first)
                best = &r;
            }
            // With retries enabled the merge must leave the map-task runs
            // intact (a failed partition re-reads them), so it copies; the
            // fail-fast path keeps the cheaper move.
            shuffled_bytes[p] +=
                detail::approx_bytes((*best->records)[best->pos].first) +
                detail::approx_bytes((*best->records)[best->pos].second);
            if (task_retries > 0)
              part.push_back((*best->records)[best->pos]);
            else
              part.push_back(std::move((*best->records)[best->pos]));
            ++best->pos;
          }
          // The merge above IS the shuffle for this partition; the reducer
          // loop below is the reduce proper — two spans per partition.
          const std::int64_t merge_done = part_t0 != 0 ? now_ns() : 0;
          if (part_t0 != 0) {
            obs::Tracer::global().complete(
                "mr.shuffle_partition", "mr", part_t0, merge_done,
                {{"partition", static_cast<std::int64_t>(p)},
                 {"records", static_cast<std::int64_t>(total)}});
          }

          Emitter<K3, V3> emitter;
          std::size_t i = 0;
          while (i < part.size()) {
            std::size_t j = i;
            std::vector<V2> values;
            while (j < part.size() && !(part[i].first < part[j].first) &&
                   !(part[j].first < part[i].first)) {
              values.push_back(std::move(part[j].second));
              ++j;
            }
            if (value_cmp_)
              std::stable_sort(values.begin(), values.end(), value_cmp_);
            reducer_(part[i].first, values, emitter);
            ++group_counts[p];
            i = j;
          }
          outputs[p] = std::move(emitter.pairs());
          if (part_t0 != 0) {
            obs::Tracer::global().complete(
                "mr.reduce_partition", "mr", merge_done, now_ns(),
                {{"partition", static_cast<std::int64_t>(p)},
                 {"groups", static_cast<std::int64_t>(group_counts[p])}});
          }
    };
    run_tasks_with_retries("reduce", static_cast<std::size_t>(partitions),
                           task_retries, config_.reduce_workers, arena,
                           run_reduce_partition,
                           counters_.reduce_task_retries);

    std::vector<std::pair<K3, V3>> all;
    counters_.partition_records.assign(shuffled.begin(), shuffled.end());
    for (std::size_t p = 0; p < outputs.size(); ++p) {
      counters_.groups += group_counts[p];
      counters_.shuffle_records += shuffled[p];
      counters_.shuffle_bytes += shuffled_bytes[p];
      for (auto& kv : outputs[p]) all.push_back(std::move(kv));
    }
    // Every combined record lands in exactly one partition slice and the
    // merge consumes every slice — the shuffle neither drops nor duplicates.
    PEACHY_CHECK(counters_.shuffle_records == counters_.combine_outputs);
    counters_.reduce_outputs = all.size();
    reduce_span.arg("groups", static_cast<std::int64_t>(counters_.groups));
    reduce_span.arg("outputs",
                    static_cast<std::int64_t>(counters_.reduce_outputs));
    reduce_span.close();
    if (obs::enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("mr.jobs").add(1);
      reg.counter("mr.map_outputs").add(counters_.map_outputs);
      reg.counter("mr.shuffle_records").add(counters_.shuffle_records);
      reg.counter("mr.shuffle_bytes").add(counters_.shuffle_bytes);
      reg.counter("mr.reduce_outputs").add(counters_.reduce_outputs);
      reg.counter("mr.groups").add(counters_.groups);
    }
    return all;
  }

 private:
  // Runs `task(i)` for every i in [0, n) on the arena, containing per-task
  // exceptions: a failed task is re-dispatched on the next pass (a fresh
  // dispatch, so the work-stealing arena is free to place it on a different
  // lane than the one that just failed) until it succeeds or the retry
  // budget is spent. Permanent failures are recorded in
  // counters_.failed_tasks as "<phase>:<index>" and the job throws with the
  // per-task root causes.
  template <typename TaskFn>
  void run_tasks_with_retries(const char* phase, std::size_t n,
                              int task_retries, int workers, TaskArena& arena,
                              const TaskFn& task,
                              std::size_t& retry_counter) {
    std::vector<std::uint8_t> done(n, 0);
    std::vector<std::string> errors(n);
    for (int attempt = 0; attempt <= task_retries; ++attempt) {
      std::vector<std::size_t> pending;
      for (std::size_t i = 0; i < n; ++i)
        if (!done[i]) pending.push_back(i);
      if (pending.empty()) return;
      if (attempt > 0) {
        retry_counter += pending.size();
        if (obs::enabled()) {
          obs::Registry::global().counter("mr.task_retries")
              .add(pending.size());
          obs::Tracer::global().instant(
              std::string("mr.task_retry.") + phase, "mr",
              {{"tasks", static_cast<std::int64_t>(pending.size())},
               {"attempt", attempt}});
        }
      }
      arena.parallel_for_index(
          pending.size(),
          [&](std::size_t idx) {
            const std::size_t t = pending[idx];
            try {
              task(t);
              done[t] = 1;
            } catch (const std::exception& e) {
              errors[t] = e.what();
            } catch (...) {
              errors[t] = "unknown exception";
            }
          },
          {.max_workers = static_cast<std::size_t>(workers), .grain = 1});
    }
    std::size_t failed = 0;
    std::string detail;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      ++failed;
      const std::string id = std::string(phase) + ":" + std::to_string(i);
      counters_.failed_tasks.push_back(id);
      detail += " " + id + " (" + errors[i] + ")";
    }
    if (failed == 0) return;
    if (obs::enabled())
      obs::Registry::global().counter("mr.task_failures").add(failed);
    throw Error("mapreduce: " + std::to_string(failed) + " " + phase +
                " task(s) still failing after " +
                std::to_string(task_retries + 1) + " attempt(s):" + detail);
  }

  Mapper mapper_;
  Combiner combiner_;
  Reducer reducer_;
  Partitioner partitioner_;
  ValueComparator value_cmp_;
  JobConfig config_;
  JobCounters counters_;
};

}  // namespace peachy::mr

#include "core/task_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace peachy {
namespace {

TEST(TaskArena, RequiresAtLeastOneWorker) {
  EXPECT_THROW(TaskArena arena(0), Error);
}

TEST(TaskArena, LanesAreWorkersPlusCaller) {
  TaskArena arena(3);
  EXPECT_EQ(arena.workers(), 3u);
  EXPECT_EQ(arena.lanes(), 4u);
}

TEST(TaskArena, ParallelForCoversEveryIndexExactlyOnce) {
  TaskArena arena(3);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    arena.parallel_for_index(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, {.grain = 1});
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
  bool called = false;
  arena.parallel_for_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);  // an empty range is a no-op
}

TEST(TaskArena, RangeChunksPartitionTheRange) {
  TaskArena arena(2);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  arena.parallel_for(
      103,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard lock(mu);
        chunks.emplace_back(lo, hi);
      },
      {.grain = 10});
  std::size_t covered = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    EXPECT_EQ(lo % 10, 0u);  // grain-aligned chunk starts
    covered += hi - lo;
  }
  EXPECT_EQ(covered, 103u);
  EXPECT_EQ(chunks.size(), 11u);  // ceil(103 / 10)
}

TEST(TaskArena, MaxWorkersOneIsSerialAndOrdered) {
  TaskArena arena(2);
  std::vector<std::size_t> order;  // no lock needed: serial path
  arena.parallel_for_index(
      100,
      [&](std::size_t i) {
        EXPECT_EQ(TaskArena::current_lane(), 0);
        order.push_back(i);
      },
      {.max_workers = 1});
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(TaskArena::current_lane(), -1);  // only set inside loop bodies
}

TEST(TaskArena, NestedParallelForRunsInline) {
  TaskArena arena(2);
  std::atomic<int> inner_total{0};
  arena.parallel_for_index(
      4,
      [&](std::size_t) {
        const int outer_lane = TaskArena::current_lane();
        arena.parallel_for_index(10, [&](std::size_t) {
          // The nested loop must not migrate work to another lane.
          EXPECT_EQ(TaskArena::current_lane(), outer_lane);
          inner_total.fetch_add(1);
        });
      },
      {.grain = 1});
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(TaskArena, ExceptionPropagatesExactlyOnceAndArenaSurvives) {
  TaskArena arena(3);
  int caught = 0;
  try {
    arena.parallel_for_index(
        256,
        [](std::size_t i) {
          if (i == 37) throw std::runtime_error("boom");
        },
        {.grain = 1});
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(caught, 1);

  // The arena must be fully reusable after a failed loop.
  std::atomic<int> sum{0};
  arena.parallel_for_index(64, [&](std::size_t) { sum.fetch_add(1); },
                           {.grain = 1});
  EXPECT_EQ(sum.load(), 64);
}

TEST(TaskArena, ExceptionOnSerialPathAlsoPropagates) {
  TaskArena arena(1);
  EXPECT_THROW(arena.parallel_for_index(
                   8, [](std::size_t) { throw std::runtime_error("x"); },
                   {.max_workers = 1}),
               std::runtime_error);
}

TEST(TaskArena, CountersTrackTasksAndDispatches) {
  TaskArena arena(2);
  arena.reset_counters();
  arena.parallel_for_index(96, [](std::size_t) {}, {.grain = 1});
  const RuntimeCounters c = arena.counters();
  EXPECT_EQ(c.tasks, 96u);       // grain 1: one chunk per index
  EXPECT_EQ(c.dispatches, 1u);   // one parallel dispatch
  arena.parallel_for_index(10, [](std::size_t) {}, {.max_workers = 1});
  EXPECT_EQ(arena.counters().dispatches, 1u);  // serial path never dispatches

  arena.reset_counters();
  const RuntimeCounters zero = arena.counters();
  EXPECT_EQ(zero.tasks, 0u);
  EXPECT_EQ(zero.steals, 0u);
}

TEST(TaskArena, CounterDeltasSubtract) {
  const RuntimeCounters a{10, 4, 2};
  const RuntimeCounters b{7, 1, 1};
  const RuntimeCounters d = a - b;
  EXPECT_EQ(d.tasks, 3u);
  EXPECT_EQ(d.steals, 3u);
  EXPECT_EQ(d.dispatches, 1u);
}

TEST(TaskArena, UnbalancedChunkCostsStillCoverEverything) {
  // A few indices are ~1000x more expensive than the rest; stealing must
  // keep the result exact regardless of which lane drew the heavy ones.
  TaskArena arena(3);
  std::atomic<std::uint64_t> total{0};
  const std::size_t n = 400;
  arena.parallel_for_index(
      n,
      [&](std::size_t i) {
        const std::size_t reps = (i % 100 == 0) ? 20000 : 20;
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) acc += (i + r) % 7;
        total.fetch_add(acc + 1);
      },
      {.grain = 1});
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t reps = (i % 100 == 0) ? 20000 : 20;
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < reps; ++r) acc += (i + r) % 7;
    expected += acc + 1;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(TaskArena, SharedArenaIsAProcessSingleton) {
  TaskArena& a = TaskArena::shared();
  TaskArena& b = TaskArena::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1u);
}

}  // namespace
}  // namespace peachy

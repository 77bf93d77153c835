#include "sandpile/variants.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "sandpile/field.hpp"

namespace peachy::sandpile {
namespace {

// --- The central property: every variant reaches the reference fixed point
// (Dhar's theorem makes them all legal computation orders). Swept over
// variants x initial configurations x tile sizes.

struct ConfigCase {
  const char* name;
  Field (*make)();
};

Field make_center() { return center_pile(40, 40, 3000); }
Field make_uniform6() { return uniform_pile(24, 24, 6); }
Field make_sparse() { return sparse_random_pile(40, 40, 0.15, 8, 64, 99); }
Field make_non_square() { return sparse_random_pile(26, 42, 0.3, 4, 32, 5); }
Field make_stable() { return max_stable_pile(16, 16); }

const ConfigCase kConfigs[] = {
    {"center", make_center},       {"uniform6", make_uniform6},
    {"sparse", make_sparse},       {"non_square", make_non_square},
    {"stable", make_stable},
};

class VariantEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Variant, int, int>> {};

TEST_P(VariantEquivalenceTest, ReachesReferenceFixedPoint) {
  const auto [variant, config_idx, tile] = GetParam();
  const ConfigCase& cfg = kConfigs[config_idx];

  Field expected = cfg.make();
  stabilize_reference(expected);

  Field f = cfg.make();
  VariantOptions opt;
  opt.tile_h = tile;
  opt.tile_w = tile;
  opt.threads = 2;
  const VariantOutcome out = run_variant(variant, f, opt);

  EXPECT_TRUE(out.run.stable) << to_string(variant) << " on " << cfg.name;
  EXPECT_TRUE(f.is_stable());
  EXPECT_TRUE(f.same_interior(expected))
      << to_string(variant) << " diverged on " << cfg.name << " tile " << tile;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllConfigs, VariantEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(all_variants()),
                       ::testing::Range(0, 5),
                       ::testing::Values(8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<Variant, int, int>>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_" +
                         kConfigs[std::get<1>(info.param)].name + "_t" +
                         std::to_string(std::get<2>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Variants, StableInputFinishesInOneIterationEagerSync) {
  Field f = max_stable_pile(16, 16);
  VariantOptions opt;
  const VariantOutcome out = run_variant(Variant::kSeqSync, f, opt);
  EXPECT_EQ(out.run.iterations, 1);
  EXPECT_TRUE(out.run.stable);
}

TEST(Variants, LazyExecutesFewerTasksOnSparseInput) {
  // A single hot spot in a big grid: the lazy variant should touch far
  // fewer tiles than the eager one.
  auto make = [] {
    Field f(128, 128);
    f.at(64, 64) = 400;
    return f;
  };
  VariantOptions opt;
  opt.tile_h = opt.tile_w = 16;

  Field eager_f = make();
  const auto eager = run_variant(Variant::kOmpTiledSync, eager_f, opt);
  Field lazy_f = make();
  const auto lazy = run_variant(Variant::kOmpLazySync, lazy_f, opt);

  EXPECT_TRUE(eager_f.same_interior(lazy_f));
  EXPECT_LT(lazy.run.tasks, eager.run.tasks / 2);
}

TEST(Variants, AsyncWaveUsesFewerIterationsThanSync) {
  // Draining tiles locally lets grains travel a whole tile per iteration
  // instead of one cell.
  Field sync_f = center_pile(64, 64, 20000);
  Field wave_f = sync_f;
  VariantOptions opt;
  opt.tile_h = opt.tile_w = 16;
  const auto sync_out = run_variant(Variant::kSeqSync, sync_f, opt);
  const auto wave_out = run_variant(Variant::kOmpLazyAsyncWave, wave_f, opt);
  EXPECT_TRUE(sync_f.same_interior(wave_f));
  EXPECT_LT(wave_out.run.iterations, sync_out.run.iterations);
}

TEST(Variants, MaxIterationsStopsEarly) {
  Field f = center_pile(64, 64, 50000);
  VariantOptions opt;
  opt.max_iterations = 5;
  const auto out = run_variant(Variant::kSeqSync, f, opt);
  EXPECT_EQ(out.run.iterations, 5);
  EXPECT_FALSE(out.run.stable);
  EXPECT_FALSE(f.is_stable());
}

TEST(Variants, TraceCapturesLazyShrinkage) {
  // Fig. 3's core observation: as the configuration settles, fewer tiles
  // are computed per iteration.
  Field f = sparse_random_pile(64, 64, 0.05, 16, 32, 17);
  TraceRecorder trace(64);
  VariantOptions opt;
  opt.tile_h = opt.tile_w = 8;
  opt.trace = &trace;
  const auto out = run_variant(Variant::kOmpLazySync, f, opt);
  ASSERT_TRUE(out.run.stable);
  const auto first = trace.iteration(0).size();
  const auto last = trace.iteration(out.run.iterations - 1).size();
  EXPECT_EQ(first, 64u);  // full first sweep over 8x8 tiles
  EXPECT_LT(last, first);
}

TEST(Variants, NonSquareTilesReachReferenceFixedPoint) {
  Field expected = sparse_random_pile(30, 46, 0.25, 4, 40, 31);
  stabilize_reference(expected);
  for (const auto& [th, tw] : {std::pair{4, 16}, {16, 4}, {7, 11}}) {
    Field f = sparse_random_pile(30, 46, 0.25, 4, 40, 31);
    VariantOptions opt;
    opt.tile_h = th;
    opt.tile_w = tw;
    run_variant(Variant::kOmpLazyAsyncWave, f, opt);
    EXPECT_TRUE(f.same_interior(expected)) << th << "x" << tw;
  }
}

TEST(Variants, IterationHookObservesRun) {
  Field f = center_pile(32, 32, 500);
  int calls = 0;
  VariantOptions opt;
  opt.on_iteration = [&calls](int, bool) { ++calls; };
  const VariantOutcome out = run_variant(Variant::kOmpLazySync, f, opt);
  EXPECT_EQ(calls, out.run.iterations);
}

TEST(Variants, AllNamesDistinct) {
  std::set<std::string> names;
  for (Variant v : all_variants()) names.insert(to_string(v));
  EXPECT_EQ(names.size(), all_variants().size());
}

TEST(Variants, ThreadCountsAgree) {
  // Same fixed point regardless of the number of OpenMP threads.
  Field base = sparse_random_pile(48, 48, 0.2, 4, 40, 123);
  Field expected = base;
  stabilize_reference(expected);
  for (int threads : {1, 2, 4, 8}) {
    Field f = base;
    VariantOptions opt;
    opt.threads = threads;
    opt.tile_h = opt.tile_w = 8;
    run_variant(Variant::kOmpLazyAsyncWave, f, opt);
    EXPECT_TRUE(f.same_interior(expected)) << threads << " threads";
  }
}

}  // namespace
}  // namespace peachy::sandpile

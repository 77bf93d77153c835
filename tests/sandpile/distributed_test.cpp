// The block-decomposed ghost-cell engine: every process-grid shape, halo
// depth and test grid must land on the sequential reference fixed point.
// A P x 1 grid is the assignment's 1-D row decomposition, 1 x P splits only
// the columns, and 2 x 2 exercises the corner-carrying two-phase exchange.
#include "sandpile/distributed.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "mpp/checkpoint.hpp"
#include "sandpile/field.hpp"
#include "sandpile/result_blob.hpp"
#include "sandpile/variants.hpp"

namespace peachy::sandpile {
namespace {

DistributedOptions grid_options(int ranks_y, int ranks_x, int depth) {
  DistributedOptions opt;
  opt.ranks = ranks_y * ranks_x;
  opt.ranks_x = ranks_x;
  opt.halo_depth = depth;
  return opt;
}

// The shared sweep body: one process grid and depth over every test grid
// (a tall, a wide and an unevenly divided one). A halo deeper than the
// smallest block would need cells from beyond the neighbour, so the engine
// must refuse that combination.
void expect_reference_fixed_point(int ranks_y, int ranks_x, int depth) {
  for (const Field& initial :
       {sparse_random_pile(36, 30, 0.25, 4, 48, 77),
        sparse_random_pile(34, 38, 0.25, 4, 48, 555),
        sparse_random_pile(37, 23, 0.3, 4, 32, 3)}) {
    const DistributedOptions opt = grid_options(ranks_y, ranks_x, depth);
    if ((ranks_y > 1 && depth > initial.height() / ranks_y) ||
        (ranks_x > 1 && depth > initial.width() / ranks_x)) {
      EXPECT_THROW(stabilize_distributed(initial, opt), Error);
      continue;
    }
    Field expected = initial;
    stabilize_reference(expected);
    const DistributedResult r = stabilize_distributed(initial, opt);
    EXPECT_TRUE(r.stable);
    EXPECT_FALSE(r.aborted);
    EXPECT_TRUE(r.field.same_interior(expected))
        << initial.height() << "x" << initial.width() << " grid on "
        << ranks_y << "x" << ranks_x << " ranks, halo depth " << depth;
    EXPECT_EQ(r.iterations, r.rounds * depth);
  }
}

TEST(Distributed, ValidatesOptions) {
  const Field f = center_pile(16, 16, 100);
  DistributedOptions opt;
  opt.ranks = 0;
  EXPECT_THROW(stabilize_distributed(f, opt), Error);
  opt.ranks = 4;
  opt.halo_depth = 0;
  EXPECT_THROW(stabilize_distributed(f, opt), Error);
  opt.halo_depth = 1;
  opt.ranks_x = 0;
  EXPECT_THROW(stabilize_distributed(f, opt), Error);
  opt.ranks_x = 3;  // does not divide 4 ranks
  EXPECT_THROW(stabilize_distributed(f, opt), Error);
  opt.ranks_x = 1;
  opt.ranks = 32;  // more ranks than rows
  EXPECT_THROW(stabilize_distributed(Field(8, 8), opt), Error);
  opt.ranks_x = 32;  // more columns of ranks than grid columns
  EXPECT_THROW(stabilize_distributed(Field(8, 8), opt), Error);
  opt.ranks = 4;
  opt.ranks_x = 1;
  opt.halo_depth = 5;  // 16 rows over 4 ranks: blocks of 4 rows
  EXPECT_THROW(stabilize_distributed(f, opt), Error);
}

TEST(Distributed, SingleRankMatchesReference) {
  Field initial = center_pile(20, 20, 2000);
  Field expected = initial;
  stabilize_reference(expected);
  DistributedOptions opt;
  opt.ranks = 1;
  const DistributedResult r = stabilize_distributed(initial, opt);
  EXPECT_TRUE(r.stable);
  EXPECT_TRUE(r.field.same_interior(expected));
  EXPECT_EQ(r.comm.messages_sent, 0u);  // no neighbours to talk to
}

// Row decompositions (P x 1): ranks x halo depth.
class DistributedSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistributedSweepTest, MatchesReferenceFixedPoint) {
  const auto [ranks, depth] = GetParam();
  expect_reference_fixed_point(ranks, 1, depth);
}

INSTANTIATE_TEST_SUITE_P(RanksByDepth, DistributedSweepTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                                            ::testing::Values(1, 2, 3, 5)));

// Every process-grid shape: ranks_y x ranks_x x halo depth. Corner
// propagation is only exercised for k >= 2 on grids with both dimensions
// > 1, so those cases matter most.
class Distributed2dSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Distributed2dSweep, MatchesReferenceFixedPoint) {
  const auto [py, px, depth] = GetParam();
  expect_reference_fixed_point(py, px, depth);
}

INSTANTIATE_TEST_SUITE_P(GridByDepth, Distributed2dSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3, 5)));

// A private checkpoint directory, removed on teardown.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/peachy-distributed-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Distributed, RowDecompositionWireIsPinned) {
  // A P x 1 world at k = 1 sends exactly what the former 1-D engine sent:
  // full-width rows of W + 2 cells, one per neighbour per round. These
  // figures were recorded from that engine; a change here changes the
  // wire, the checkpoint format and every per-job byte count.
  const Field initial = center_pile(40, 28, 4000);
  DistributedOptions opt;
  opt.ranks = 3;
  const DistributedResult r = stabilize_distributed(initial, opt);
  ASSERT_TRUE(r.stable);
  EXPECT_EQ(r.rounds, 636);
  // Halo part: 4 strips of 30 cells per round, plus the 4-message gather
  // (two sizes, two blocks of 13 and 14 rows).
  constexpr std::uint64_t kHaloMessages = 4 * 636 + 4;
  constexpr std::uint64_t kHaloBytes = 4 * 636 * 30 * 4 + 16 + 27 * 28 * 4;
  // Verdict part: a rank-0 star of 4 eight-byte messages every 4th round,
  // the last at round 636.
  constexpr std::uint64_t kVerdictMessages = 4 * (636 / 4);
  constexpr std::uint64_t kVerdictBytes = kVerdictMessages * 8;
  EXPECT_EQ(r.comm.messages_sent, kHaloMessages + kVerdictMessages);  // 3184
  EXPECT_EQ(r.comm.bytes_sent, kHaloBytes + kVerdictBytes);           // 313408

  // Each rank's slab: round + shape header, then (rows + 2) x (W + 2)
  // cells; 40 rows over 3 ranks own 13, 13 and 14.
  TempDir dir;
  opt.max_rounds = 8;
  opt.checkpoint_every = 8;
  opt.run.resilience.checkpoint_dir = dir.path();
  ASSERT_FALSE(stabilize_distributed(initial, opt).stable);
  const std::optional<mpp::CheckpointImage> image =
      mpp::load_checkpoint(dir.path(), 3);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->epoch, 1);  // one cut, at round 8
  std::vector<std::size_t> sizes;
  for (const auto& blob : image->blobs) sizes.push_back(blob.size());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1812, 1812, 1932}));
}

TEST(Distributed, DeeperHaloMeansFewerRounds) {
  Field initial = center_pile(48, 48, 8000);
  DistributedOptions opt;
  opt.ranks = 4;

  opt.halo_depth = 1;
  const DistributedResult shallow = stabilize_distributed(initial, opt);
  opt.halo_depth = 4;
  const DistributedResult deep = stabilize_distributed(initial, opt);

  EXPECT_TRUE(shallow.field.same_interior(deep.field));
  EXPECT_LT(deep.rounds, shallow.rounds);
  // The comm/compute trade: fewer messages with deeper halos...
  EXPECT_LT(deep.comm.messages_sent, shallow.comm.messages_sent);
  // ...but not proportionally fewer bytes (each exchange carries k rows).
  EXPECT_GT(deep.comm.bytes_sent,
            shallow.comm.bytes_sent / 4);
}

TEST(Distributed, MaxRoundsBoundsExecution) {
  Field initial = center_pile(32, 32, 50000);
  DistributedOptions opt;
  opt.ranks = 2;
  opt.max_rounds = 3;
  const DistributedResult r = stabilize_distributed(initial, opt);
  EXPECT_FALSE(r.stable);
  EXPECT_EQ(r.rounds, 3);
}

TEST(Distributed, AbortOn2x2StopsEveryRankAtTheSameRound) {
  // should_abort is polled on rank 0 at each verdict (every 4th round) and
  // fires at its third poll, in round 12; the verdict rides the termination
  // all-reduce, so every rank leaves after the same twelve exchanges. A
  // rank that ran on would send more (or hang the world), so the traffic
  // must equal a run capped at the same round.
  const Field initial = center_pile(32, 32, 50000);
  DistributedOptions opt = grid_options(2, 2, 2);
  std::atomic<int> polls{0};
  opt.should_abort = [&polls] { return ++polls >= 3; };
  const DistributedResult aborted = stabilize_distributed(initial, opt);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_FALSE(aborted.stable);
  EXPECT_EQ(aborted.rounds, 12);
  EXPECT_EQ(polls.load(), 3);

  DistributedOptions capped = grid_options(2, 2, 2);
  capped.max_rounds = aborted.rounds;
  const DistributedResult bounded = stabilize_distributed(initial, capped);
  EXPECT_FALSE(bounded.aborted);
  EXPECT_EQ(aborted.comm.messages_sent, bounded.comm.messages_sent);
  EXPECT_EQ(aborted.comm.bytes_sent, bounded.comm.bytes_sent);
  EXPECT_TRUE(aborted.field.same_interior(bounded.field));
}

// Per-round verdict oracle. The verdict runs only every few rounds, yet a
// run must report what checking after every round would: the sequential
// synchronous solver's `iters` includes the final no-change iteration, so
// the last change falls in round ceil((iters - 1) / k) and the first
// quiet round is the one after it.
TEST(Distributed, RoundsMatchSequentialSyncIterations) {
  int cases = 0, off_grid = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int H = 15 + static_cast<int>(seed % 5);
    const int W = 15 + static_cast<int>(seed * 7 % 6);
    const Field initial =
        sparse_random_pile(H, W, 0.1 + 0.03 * static_cast<double>(seed % 4),
                           4, 12 + 4 * static_cast<Cell>(seed), seed);
    Field expected = initial;
    const int iters = run_variant(Variant::kSeqSync, expected).run.iterations;
    for (const auto& [py, px] : {std::pair{1, 1}, std::pair{2, 1},
                                 std::pair{3, 1}, std::pair{2, 2},
                                 std::pair{1, 3}}) {
      for (const int k : {1, 2, 3, 5}) {
        const DistributedResult r =
            stabilize_distributed(initial, grid_options(py, px, k));
        ASSERT_TRUE(r.stable);
        EXPECT_TRUE(r.field.same_interior(expected))
            << "seed " << seed << " on " << py << "x" << px << ", k " << k;
        EXPECT_EQ(r.rounds, (iters - 1 + k - 1) / k + 1)
            << "seed " << seed << " on " << py << "x" << px << ", k " << k
            << ", " << iters << " sequential iterations";
        ++cases;
        if (r.rounds % 4 != 0) ++off_grid;
      }
    }
  }
  EXPECT_EQ(cases, 240);
  // Most runs must stop between verdicts (145 of the 240 do), or the test
  // would not tell an exact `rounds` from the verdict round.
  EXPECT_GT(off_grid, 120);
}

// Checkpoint rounds and max_rounds are verdict rounds too, even off the
// every-4th-round grid; neither may move a result byte.
TEST(Distributed, OffGridCutsAndCapsKeepResultBlobs) {
  const auto blob = [](const DistributedResult& r) {
    return detail::encode_result(r.field, r.stable, r.rounds, r.aborted);
  };
  // Three piles run far past the cap; at k = 1 one of the three center
  // piles settles before it (round 6), at k = 2 all three do (rounds 4, 5
  // and 7).
  std::vector<Field> piles;
  for (const std::uint64_t seed : {5u, 6u, 7u})
    piles.push_back(sparse_random_pile(20, 18, 0.3, 4, 40, seed));
  for (const Cell grains : {32u, 48u, 60u})
    piles.push_back(center_pile(20, 18, grains));
  for (const int k : {1, 2}) {
    for (std::size_t p = 0; p < piles.size(); ++p) {
      const Field& initial = piles[p];
      const DistributedOptions plain = grid_options(2, 1, k);
      const DistributedResult a = stabilize_distributed(initial, plain);
      ASSERT_TRUE(a.stable);

      DistributedOptions cut = plain;
      cut.checkpoint_every = 3;
      cut.run.resilience.max_restarts = 1;  // private temp checkpoint dir
      const DistributedResult b = stabilize_distributed(initial, cut);
      EXPECT_EQ(blob(b), blob(a)) << "k " << k << ", pile " << p;

      // Capped at 7 rounds, a per-round verdict reports the sequential
      // grid after 7k iterations, or the fixed point if it came first.
      constexpr int kCap = 7;
      Field expected = initial;
      VariantOptions seq;
      seq.max_iterations = kCap * k;
      const pap::RunResult run =
          run_variant(Variant::kSeqSync, expected, seq).run;
      const int stable_round = (run.iterations - 1 + k - 1) / k + 1;
      const bool stable = run.stable && stable_round <= kCap;
      DistributedOptions capped = plain;
      capped.max_rounds = kCap;
      const DistributedResult c = stabilize_distributed(initial, capped);
      EXPECT_EQ(blob(c), detail::encode_result(expected, stable,
                                               stable ? stable_round : kCap))
          << "k " << k << ", pile " << p;
    }
  }
}

TEST(Distributed, StableInputTerminatesInOneRound) {
  const Field initial = max_stable_pile(16, 16);
  DistributedOptions opt;
  opt.ranks = 4;
  const DistributedResult r = stabilize_distributed(initial, opt);
  EXPECT_TRUE(r.stable);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_TRUE(r.field.same_interior(initial));
}

TEST(Distributed, UnevenRowPartitionWorks) {
  // 17 rows over 5 ranks: blocks of 3,4,3,4,3.
  Field initial = sparse_random_pile(17, 23, 0.3, 4, 32, 3);
  Field expected = initial;
  stabilize_reference(expected);
  DistributedOptions opt;
  opt.ranks = 5;
  opt.halo_depth = 2;
  const DistributedResult r = stabilize_distributed(initial, opt);
  EXPECT_TRUE(r.field.same_interior(expected));
}

TEST(Distributed, InputFieldIsNotModified) {
  const Field initial = center_pile(16, 16, 600);
  const Field snapshot = initial;
  for (const int ranks_x : {1, 2}) {
    DistributedOptions opt;
    opt.ranks = 2 * ranks_x;
    opt.ranks_x = ranks_x;
    opt.halo_depth = 2;
    stabilize_distributed(initial, opt);
    EXPECT_TRUE(initial.same_interior(snapshot));
  }
}

TEST(Distributed2d, ValidatesOptions) {
  // The process grid must tile the field: ranks_x beyond the width fails
  // even when ranks_y fits the height.
  EXPECT_THROW(stabilize_distributed(Field(8, 8), grid_options(1, 32, 1)),
               Error);
  EXPECT_NO_THROW(
      stabilize_distributed(center_pile(8, 8, 40), grid_options(3, 2, 1)));
}

TEST(Distributed2d, SingleRankMatchesReference) {
  Field initial = center_pile(20, 20, 2000);
  Field expected = initial;
  stabilize_reference(expected);
  const DistributedResult r =
      stabilize_distributed(initial, grid_options(1, 1, 3));
  EXPECT_TRUE(r.stable);
  EXPECT_TRUE(r.field.same_interior(expected));
  EXPECT_EQ(r.comm.messages_sent, 0u);
}

TEST(Distributed2d, CornerPropagationAcrossDiagonal) {
  // A pile near a 4-rank corner: its avalanche must cross into the
  // diagonal rank's block, which only works if corners travel through the
  // two-phase exchange.
  Field initial(16, 16);
  initial.at(7, 7) = 600;  // at the junction of a 2x2 decomposition
  Field expected = initial;
  stabilize_reference(expected);
  // k >= 2 exercises diagonal dependencies.
  const DistributedResult r =
      stabilize_distributed(initial, grid_options(2, 2, 3));
  EXPECT_TRUE(r.field.same_interior(expected));
}

TEST(Distributed2d, AgreesWith1dDecomposition) {
  Field initial = sparse_random_pile(32, 32, 0.2, 4, 40, 9);
  const DistributedResult a =
      stabilize_distributed(initial, grid_options(4, 1, 2));
  const DistributedResult b =
      stabilize_distributed(initial, grid_options(2, 2, 2));
  const DistributedResult c =
      stabilize_distributed(initial, grid_options(1, 4, 2));
  EXPECT_TRUE(a.field.same_interior(b.field));
  EXPECT_TRUE(a.field.same_interior(c.field));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.rounds, c.rounds);
}

TEST(Distributed2d, PerimeterBeatsRowVolumeOnWideGrids) {
  // Surface-to-volume: on a square grid with P ranks, a 2-D decomposition
  // moves fewer cells per round than 1-D once P is large enough.
  Field initial = center_pile(64, 64, 40000);
  const DistributedResult a =
      stabilize_distributed(initial, grid_options(16, 1, 1));
  const DistributedResult b =
      stabilize_distributed(initial, grid_options(4, 4, 1));
  EXPECT_TRUE(a.field.same_interior(b.field));
  ASSERT_EQ(a.rounds, b.rounds);  // same sync schedule
  EXPECT_LT(b.comm.bytes_sent, a.comm.bytes_sent);
}

TEST(Distributed2d, MaxRoundsBounds) {
  Field initial = center_pile(32, 32, 50000);
  DistributedOptions opt = grid_options(2, 2, 1);
  opt.max_rounds = 2;
  const DistributedResult r = stabilize_distributed(initial, opt);
  EXPECT_FALSE(r.stable);
  EXPECT_EQ(r.rounds, 2);
}

TEST(Distributed2d, UnevenBlocksWork) {
  // 17x13 over a 3x5 grid: every block size differs.
  Field initial = sparse_random_pile(17, 13, 0.4, 4, 24, 2);
  Field expected = initial;
  stabilize_reference(expected);
  const DistributedResult r =
      stabilize_distributed(initial, grid_options(3, 5, 2));
  EXPECT_TRUE(r.field.same_interior(expected));
}

TEST(Distributed2d, StableInputOneRound) {
  const Field initial = max_stable_pile(16, 16);
  const DistributedResult r =
      stabilize_distributed(initial, grid_options(2, 2, 1));
  EXPECT_TRUE(r.stable);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_TRUE(r.field.same_interior(initial));
}

}  // namespace
}  // namespace peachy::sandpile

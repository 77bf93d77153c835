// Kill-and-recover: a spawned distributed sandpile whose wire is severed
// mid-run must detect the dead rank, respawn the world, restore the last
// committed checkpoint, and still produce the byte-identical final grid.
// This is the end-to-end acceptance test for the whole recovery stack
// (fault injector -> failure detection -> supervision -> checkpoint).
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "mpp/checkpoint.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

namespace peachy::sandpile {
namespace {

// A fresh private directory per test, removed on teardown.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/peachy-recovery-XXXXXX";
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

// scripts/fault_sweep.sh varies the sever point through this env var so one
// test body covers many failure instants; a bare run uses the default.
int sweep_sever_after() {
  const char* env = std::getenv("PEACHY_FAULT_SEED");
  const int seed = env ? std::atoi(env) : 1;
  return 20 + (seed % 25) * 6;
}

TEST(Recovery, Spawned2dSeveredRankRecoversByteIdentical) {
  const Field initial = center_pile(24, 24, 1500);
  Field reference = initial;
  stabilize_reference(reference);

  DistributedOptions opt;
  opt.ranks = 4;
  opt.ranks_x = 2;
  opt.checkpoint_every = 4;
  opt.run.spawn = true;
  opt.run.transport = mpp::TransportKind::kTcp;
  opt.run.resilience.max_restarts = 3;
  opt.run.tcp.fault.sever_after = sweep_sever_after();

  const DistributedResult r = stabilize_distributed(initial, opt);
  ASSERT_TRUE(r.stable);
  EXPECT_GE(r.restarts, 1) << "the sever never fired; the test is vacuous";
  EXPECT_TRUE(r.field.same_interior(reference))
      << "recovered grid differs from the fault-free result";
}

TEST(Recovery, Spawned1dSeveredRankRecoversByteIdentical) {
  const Field initial = sparse_random_pile(30, 30, 0.3, 2, 9, 555);
  Field reference = initial;
  stabilize_reference(reference);

  DistributedOptions opt;
  opt.ranks = 2;
  opt.checkpoint_every = 4;
  opt.run.spawn = true;
  opt.run.transport = mpp::TransportKind::kTcp;
  opt.run.resilience.max_restarts = 3;
  opt.run.tcp.fault.sever_after = 60;

  const DistributedResult r = stabilize_distributed(initial, opt);
  ASSERT_TRUE(r.stable);
  EXPECT_GE(r.restarts, 1);
  EXPECT_TRUE(r.field.same_interior(reference));
}

TEST(Recovery, CappedRunResumesFromNamedCheckpointDir) {
  // Invocation one runs 40 rounds and commits a checkpoint at round 40;
  // invocation two restores it and runs to stability — the pair must land
  // exactly where one uninterrupted run does.
  const Field initial = center_pile(48, 48, 20000);
  Field reference = initial;
  stabilize_reference(reference);

  DistributedOptions base;
  base.ranks = 3;
  base.checkpoint_every = 8;
  const DistributedResult uninterrupted = stabilize_distributed(initial, base);
  ASSERT_TRUE(uninterrupted.stable);
  ASSERT_GT(uninterrupted.rounds, 40) << "problem too small to interrupt";

  TempDir dir;
  DistributedOptions capped = base;
  capped.max_rounds = 40;
  capped.run.resilience.checkpoint_dir = dir.path();
  const DistributedResult first = stabilize_distributed(initial, capped);
  EXPECT_FALSE(first.stable);

  DistributedOptions resumed = base;
  resumed.run.resilience.checkpoint_dir = dir.path();
  const DistributedResult second = stabilize_distributed(initial, resumed);
  ASSERT_TRUE(second.stable);
  EXPECT_EQ(second.rounds, uninterrupted.rounds);
  EXPECT_TRUE(second.field.same_interior(reference));
}

TEST(Recovery, CappedRunResumesFromAnOffGridCheckpoint) {
  // The same pair with the cap and the last cut at round 21, which is not
  // one of the every-4th verdict rounds: the cut must still carry the
  // exact round, so the resumed run reports the uninterrupted `rounds`.
  const Field initial = center_pile(48, 48, 20000);
  Field reference = initial;
  stabilize_reference(reference);

  DistributedOptions base;
  base.ranks = 3;
  base.checkpoint_every = 3;
  const DistributedResult uninterrupted = stabilize_distributed(initial, base);
  ASSERT_TRUE(uninterrupted.stable);
  ASSERT_GT(uninterrupted.rounds, 21) << "problem too small to interrupt";

  TempDir dir;
  DistributedOptions capped = base;
  capped.max_rounds = 21;
  capped.run.resilience.checkpoint_dir = dir.path();
  const DistributedResult first = stabilize_distributed(initial, capped);
  EXPECT_FALSE(first.stable);
  EXPECT_EQ(first.rounds, 21);
  // Every third round is cut, verdict grid or not: rounds 3, 6, ..., 21.
  const std::optional<mpp::CheckpointImage> image =
      mpp::load_checkpoint(dir.path(), 3);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->epoch, 7);

  DistributedOptions resumed = base;
  resumed.run.resilience.checkpoint_dir = dir.path();
  const DistributedResult second = stabilize_distributed(initial, resumed);
  ASSERT_TRUE(second.stable);
  EXPECT_EQ(second.rounds, uninterrupted.rounds);
  EXPECT_TRUE(second.field.same_interior(reference));
}

TEST(Recovery, ResumeFromTheLastChangingRoundStopsOneRoundLater) {
  // Cut at the last round that changed a cell: the resumed run changes
  // nothing more, so only the restored round can tell its verdict how far
  // the world got. It must stop at the uninterrupted `rounds`, not at 1.
  const Field initial = center_pile(24, 24, 3000);
  DistributedOptions base;
  base.ranks = 3;
  const DistributedResult uninterrupted = stabilize_distributed(initial, base);
  ASSERT_TRUE(uninterrupted.stable);
  const int last_change = uninterrupted.rounds - 1;
  base.checkpoint_every = last_change;

  TempDir dir;
  DistributedOptions capped = base;
  capped.max_rounds = last_change;
  capped.run.resilience.checkpoint_dir = dir.path();
  EXPECT_FALSE(stabilize_distributed(initial, capped).stable);

  DistributedOptions resumed = base;
  resumed.run.resilience.checkpoint_dir = dir.path();
  const DistributedResult second = stabilize_distributed(initial, resumed);
  ASSERT_TRUE(second.stable);
  EXPECT_EQ(second.rounds, uninterrupted.rounds);
  EXPECT_TRUE(second.field.same_interior(uninterrupted.field));
}

TEST(Recovery, CheckpointingDoesNotPerturbTheResult) {
  // Cutting checkpoints must be invisible to the computation: same rounds,
  // same grid as the checkpoint-free run.
  const Field initial = sparse_random_pile(40, 40, 0.35, 2, 9, 321);

  DistributedOptions plain;
  plain.ranks = 4;
  plain.halo_depth = 2;
  const DistributedResult a = stabilize_distributed(initial, plain);

  DistributedOptions ckpt = plain;
  ckpt.checkpoint_every = 2;
  ckpt.run.resilience.max_restarts = 1;  // private temp checkpoint dir
  const DistributedResult b = stabilize_distributed(initial, ckpt);

  ASSERT_TRUE(a.stable);
  ASSERT_TRUE(b.stable);
  EXPECT_EQ(b.restarts, 0);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.field.same_interior(b.field));
}

}  // namespace
}  // namespace peachy::sandpile

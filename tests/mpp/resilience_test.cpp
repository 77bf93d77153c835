// Checkpoint/restore and the supervised restart loop: the pieces that turn
// "a rank died" from a propagated error into a bounded recovery.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mpp/checkpoint.hpp"
#include "mpp/mpp.hpp"
#include "obs/obs.hpp"

namespace peachy::mpp {
namespace {

// A fresh private directory per test, removed on teardown.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/peachy-resilience-XXXXXX";
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

std::vector<std::byte> blob_of(std::int32_t value) {
  std::vector<std::byte> b(sizeof(value));
  std::memcpy(b.data(), &value, sizeof(value));
  return b;
}

std::int32_t value_of(const std::vector<std::byte>& b) {
  std::int32_t value = -1;
  EXPECT_EQ(b.size(), sizeof(value));
  if (b.size() == sizeof(value)) std::memcpy(&value, b.data(), sizeof(value));
  return value;
}

TEST(Checkpoint, FileRoundTripPreservesEpochAndBlobs) {
  TempDir dir;
  CheckpointImage image;
  image.epoch = 3;
  image.blobs = {blob_of(10), blob_of(20), {}};  // empty blob is legal
  save_checkpoint(dir.path(), image);
  // The commit is an atomic rename: no temp file may survive it.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/ckpt.tmp"));

  const auto back = load_checkpoint(dir.path(), 3);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 3);
  ASSERT_EQ(back->blobs.size(), 3u);
  EXPECT_EQ(value_of(back->blobs[0]), 10);
  EXPECT_EQ(value_of(back->blobs[1]), 20);
  EXPECT_TRUE(back->blobs[2].empty());
}

TEST(Checkpoint, MissingFileIsNotAnError) {
  TempDir dir;
  EXPECT_FALSE(load_checkpoint(dir.path(), 2).has_value());
}

TEST(Checkpoint, CorruptedFileIsRejected) {
  TempDir dir;
  CheckpointImage image;
  image.epoch = 1;
  image.blobs = {blob_of(42), blob_of(43)};
  save_checkpoint(dir.path(), image);

  const std::string file = dir.path() + "/" + kCheckpointFile;
  {
    // Flip one payload byte; the CRC trailer must catch it.
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(18);
    char b = 0;
    f.seekg(18);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(18);
    f.write(&b, 1);
  }
  EXPECT_THROW(load_checkpoint(dir.path(), 2), Error);
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  TempDir dir;
  CheckpointImage image;
  image.epoch = 1;
  image.blobs = {blob_of(42)};
  save_checkpoint(dir.path(), image);
  const std::string file = dir.path() + "/" + kCheckpointFile;
  std::filesystem::resize_file(file, std::filesystem::file_size(file) - 3);
  EXPECT_THROW(load_checkpoint(dir.path(), 1), Error);
}

TEST(Checkpoint, WorldSizeMismatchIsRejected) {
  TempDir dir;
  CheckpointImage image;
  image.epoch = 1;
  image.blobs = {blob_of(1), blob_of(2)};
  save_checkpoint(dir.path(), image);
  EXPECT_THROW(load_checkpoint(dir.path(), 3), Error);
}

TEST(Resilience, CommCheckpointRestoreRoundTrip) {
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(3, opt, [](Comm& comm) {
    ASSERT_TRUE(comm.checkpointing());
    const std::int32_t mine = 100 + comm.rank();
    const std::vector<std::byte> blob = blob_of(mine);
    const int epoch = comm.checkpoint(blob.data(), blob.size());
    EXPECT_EQ(epoch, 1);
    const auto back = comm.restore();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(value_of(*back), mine);  // each rank gets its own slab back
    EXPECT_EQ(comm.checkpoint_epoch(), 1);
  });
}

TEST(Resilience, RestoreWithoutACommittedCheckpointIsEmpty) {
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(2, opt, [](Comm& comm) {
    EXPECT_FALSE(comm.restore().has_value());
    EXPECT_EQ(comm.checkpoint_epoch(), 0);
  });
}

TEST(Resilience, CheckpointWithoutADirectoryThrows) {
  run_world(1, RunOptions{}, [](Comm& comm) {
    EXPECT_FALSE(comm.checkpointing());
    const std::int32_t x = 1;
    EXPECT_THROW(comm.checkpoint(&x, sizeof(x)), Error);
    EXPECT_THROW(comm.restore(), Error);
  });
}

TEST(Resilience, SupervisedRunRestartsFromTheLastCheckpoint) {
  std::atomic<int> attempts{0};
  RunOptions opt;
  opt.resilience.max_restarts = 3;  // unnamed dir: private, auto-removed
  const RunOutcome out = run_world(1, opt, [&](Comm& comm) {
    attempts.fetch_add(1);
    if (const auto blob = comm.restore()) {
      // Second attempt: resume from what the failed attempt committed.
      EXPECT_EQ(value_of(*blob), 7);
      EXPECT_EQ(comm.checkpoint_epoch(), 1);
      return;
    }
    const std::vector<std::byte> blob = blob_of(7);
    comm.checkpoint(blob.data(), blob.size());
    throw Error("transient failure after the first checkpoint");
  });
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(out.restarts, 1);
}

TEST(Resilience, MultiRankSupervisedRestoreHandsEachRankItsSlab) {
  std::atomic<int> bodies{0};
  RunOptions opt;
  opt.resilience.max_restarts = 2;
  const RunOutcome out = run_world(2, opt, [&](Comm& comm) {
    bodies.fetch_add(1);
    const auto blob = comm.restore();
    if (!blob) {
      const std::vector<std::byte> mine = blob_of(10 * (comm.rank() + 1));
      comm.checkpoint(mine.data(), mine.size());
      // Every rank throws, so nobody blocks on a peer that already left.
      throw Error("transient failure on rank " +
                  std::to_string(comm.rank()));
    }
    EXPECT_EQ(value_of(*blob), 10 * (comm.rank() + 1));
    const std::int64_t sum = comm.allreduce_sum(value_of(*blob));
    EXPECT_EQ(sum, 30);
  });
  EXPECT_EQ(bodies.load(), 4);  // 2 ranks x 2 attempts
  EXPECT_EQ(out.restarts, 1);
}

TEST(Resilience, ExhaustedRestartBudgetPropagatesTheError) {
  std::atomic<int> attempts{0};
  RunOptions opt;
  opt.resilience.max_restarts = 2;
  try {
    run_world(1, opt, [&](Comm&) {
      attempts.fetch_add(1);
      throw Error("persistent failure");
    });
    FAIL() << "a persistent failure must eventually surface";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("persistent failure"),
              std::string::npos);
  }
  EXPECT_EQ(attempts.load(), 3);  // initial + 2 restarts
}

TEST(Resilience, NamedCheckpointDirSurvivesTheRun) {
  // Cross-invocation resume: the first (capped) run commits a checkpoint
  // into a caller-named directory; a second run restores from it.
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(1, opt, [](Comm& comm) {
    const std::vector<std::byte> blob = blob_of(55);
    comm.checkpoint(blob.data(), blob.size());
  });
  ASSERT_TRUE(
      std::filesystem::exists(dir.path() + "/" + std::string(kCheckpointFile)));
  run_world(1, opt, [](Comm& comm) {
    const auto blob = comm.restore();
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(value_of(*blob), 55);
  });
}

TEST(Checkpoint, OnDiskFormatIsPinned) {
  // A two-rank epoch-3 image, byte for byte: u32 magic 'PCKP' | u32
  // version 1 | u32 world | u32 epoch | per rank { u64 size | bytes } |
  // u32 crc32. Files written by earlier builds must keep loading, and
  // this build must keep writing exactly these bytes.
  const std::vector<unsigned char> golden = {
      0x50, 0x43, 0x4b, 0x50, 0x01, 0x00, 0x00, 0x00,  // magic, version
      0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,  // world, epoch
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rank 0: 4 bytes
      0x2a, 0x00, 0x00, 0x00,                          //   42
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rank 1: empty
      0xa8, 0xe9, 0x27, 0xcd};                         // crc32
  TempDir dir;
  CheckpointImage image;
  image.epoch = 3;
  image.blobs = {blob_of(42), {}};
  save_checkpoint(dir.path(), image);
  const std::string file = dir.path() + "/" + kCheckpointFile;
  std::ifstream in(file, std::ios::binary);
  const std::vector<unsigned char> written(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written, golden);

  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(golden.data()),
              static_cast<std::streamsize>(golden.size()));
  }
  const auto back = load_checkpoint(dir.path(), 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 3);
  EXPECT_EQ(value_of(back->blobs[0]), 42);
  EXPECT_TRUE(back->blobs[1].empty());
}

TEST(CheckpointWriter, FailedWriteIsRethrownOnceByTheNextSubmitOrDrain) {
  TempDir dir;
  const std::string gone = dir.path() + "/missing";  // never created
  CheckpointWriter writer(gone);
  CheckpointImage image;
  image.epoch = 1;
  image.blobs = {blob_of(1)};
  writer.submit(image);  // fails on the writer thread, not here
  // Reported by the next submit, which then queues nothing.
  EXPECT_THROW(writer.submit(image), Error);
  writer.drain();  // reported exactly once
  writer.submit(image);
  try {
    writer.drain();
    FAIL() << "a failed write must surface at the drain";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not committed"), std::string::npos)
        << e.what();
  }
  writer.drain();
}

TEST(CheckpointWriter, CollectCompletesTheImageAndItsFailureFailsTheWrite) {
  TempDir dir;
  bool fail = false;
  CheckpointWriter writer(dir.path(), [&fail](CheckpointImage& image) {
    if (fail) throw Error("rank 1 is gone");
    image.blobs[1] = blob_of(11);
  });
  CheckpointImage image;
  image.epoch = 1;
  image.blobs = {blob_of(10), {}};
  writer.submit(image);
  writer.drain();
  const auto back = load_checkpoint(dir.path(), 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(value_of(back->blobs[1]), 11);

  fail = true;  // the writer is idle: no race on the flag
  image.epoch = 2;
  writer.submit(image);
  try {
    writer.drain();
    FAIL() << "a failed collect must surface at the drain";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 is gone"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(load_checkpoint(dir.path(), 2)->epoch, 1);  // epoch 1 stays
}

TEST(Resilience, NonRootCutDoesNotWaitForRankZero) {
  // Rank 1 takes three cuts and then signals rank 0, which only joins the
  // cuts after the signal. With an acked cut rank 1 would block in its
  // first checkpoint() forever; the ack-free cut just sends.
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(2, opt, [](Comm& comm) {
    const std::vector<std::byte> blob = blob_of(comm.rank());
    std::int32_t token = 0;
    if (comm.rank() == 1) {
      for (int e = 1; e <= 3; ++e)
        EXPECT_EQ(comm.checkpoint(blob.data(), blob.size()), e);
      comm.send(0, 7, &token, 1);
      return;
    }
    comm.recv(1, 7, &token, 1);
    for (int e = 1; e <= 3; ++e)
      EXPECT_EQ(comm.checkpoint(blob.data(), blob.size()), e);
  });
  const auto image = load_checkpoint(dir.path(), 2);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->epoch, 3);
  EXPECT_EQ(value_of(image->blobs[1]), 1);
}

TEST(Resilience, EmptyBlobsTravelAsEmptyMessages) {
  // Each blob is one message, so an empty slab is a zero-length frame on
  // both the cut and the restore path, over mailboxes and over sockets.
  for (const TransportKind kind : {TransportKind::kInproc, TransportKind::kTcp}) {
    TempDir dir;
    RunOptions opt;
    opt.transport = kind;
    opt.resilience.checkpoint_dir = dir.path();
    run_world(3, opt, [](Comm& comm) {
      const std::vector<std::byte> blob =
          comm.rank() == 1 ? std::vector<std::byte>{} : blob_of(comm.rank());
      EXPECT_EQ(comm.checkpoint(blob.data(), blob.size()), 1);
      const auto back = comm.restore();
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, blob);
    });
  }
}

TEST(Resilience, CheckpointWriteIsObservedOffTheCriticalPath) {
  const bool was = obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  obs::Histogram& writes = registry.histogram("mpp.checkpoint_write_ns");
  const std::uint64_t writes_before = writes.count();
  obs::Tracer::global().clear();
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(2, opt, [](Comm& comm) {
    const std::vector<std::byte> blob = blob_of(comm.rank());
    for (int e = 0; e < 4; ++e) comm.checkpoint(blob.data(), blob.size());
  });
  obs::set_enabled(was);
  EXPECT_EQ(writes.count() - writes_before, 4u);
  // The wait counter exists from the first cut on (a fast disk may leave
  // it at zero).
  bool wait_counter = false;
  for (const auto& sample : registry.samples())
    wait_counter |= sample.name == "mpp.checkpoint_wait_ns";
  EXPECT_TRUE(wait_counter);
  // Every write is a span on the writer thread, never on a rank's thread.
  std::vector<int> cut_tids, write_tids;
  for (const auto& ev : obs::Tracer::global().snapshot()) {
    if (ev.name == "mpp.checkpoint") cut_tids.push_back(ev.tid);
    if (ev.name == "mpp.checkpoint_write") write_tids.push_back(ev.tid);
  }
  EXPECT_EQ(cut_tids.size(), 8u);
  ASSERT_EQ(write_tids.size(), 4u);
  for (int tid : write_tids) {
    EXPECT_EQ(tid, write_tids[0]);
    EXPECT_EQ(std::count(cut_tids.begin(), cut_tids.end(), tid), 0);
  }
}

// ---------------------------------------------------------------------------
// The asynchronous-commit durability contract, on threaded and spawned
// worlds alike: the committed checkpoint may lag the last cut by one only
// while rank 0 is alive; every body exit drains it.

enum class WorldKind { kThreads, kSpawned };

class Durability : public ::testing::TestWithParam<WorldKind> {
 protected:
  // Both kinds run over tcp: a rank that leaves early must surface as
  // PeerDied on the ranks still waiting for it (mailboxes would block).
  RunOptions options() const {
    RunOptions opt;
    opt.transport = TransportKind::kTcp;
    opt.spawn = GetParam() == WorldKind::kSpawned;
    return opt;
  }
};

std::string world_name(const ::testing::TestParamInfo<WorldKind>& info) {
  return info.param == WorldKind::kThreads ? "Threads" : "Spawned";
}

// Fails the body loudly: assertions inside a forked worker do not reach
// the test process, but a thrown Error does (as the world's error).
void require(bool ok, const std::string& what) {
  if (!ok) throw Error("durability check failed: " + what);
}

TEST_P(Durability, BodyThrowingRightAfterACutRestartsFromThatEpoch) {
  constexpr int kCuts = 5;
  RunOptions opt = options();
  opt.resilience.max_restarts = 1;  // a failed check exhausts the budget
  const RunOutcome out = run_world(3, opt, [](Comm& comm) {
    if (const auto blob = comm.restore()) {
      require(comm.checkpoint_epoch() == kCuts,
              "restored epoch " + std::to_string(comm.checkpoint_epoch()));
      require(value_of(*blob) == 100 * comm.rank() + kCuts,
              "restored blob " + std::to_string(value_of(*blob)));
      const std::int32_t epoch = comm.checkpoint_epoch();
      if (comm.rank() == 0) comm.set_result(&epoch, sizeof(epoch));
      return;
    }
    for (int e = 1; e <= kCuts; ++e) {
      const std::vector<std::byte> blob = blob_of(100 * comm.rank() + e);
      comm.checkpoint(blob.data(), blob.size());
    }
    // Rank 0's last write is still in flight here; the launcher must land
    // it before the supervisor restarts the world.
    throw Error("transient failure right after the last cut");
  });
  EXPECT_EQ(out.restarts, 1);
  ASSERT_EQ(out.rank0_result.size(), sizeof(std::int32_t));
  EXPECT_EQ(value_of(out.rank0_result), kCuts);
}

TEST_P(Durability, FailedWriteSurfacesAtWorldEnd) {
  TempDir dir;
  RunOptions opt = options();
  opt.resilience.checkpoint_dir = dir.path() + "/ckpt";
  const std::string ckpt_dir = opt.resilience.checkpoint_dir;
  try {
    run_world(2, opt, [&](Comm& comm) {
      if (comm.rank() == 0) std::filesystem::remove_all(ckpt_dir);
      comm.barrier();
      const std::vector<std::byte> blob = blob_of(comm.rank());
      comm.checkpoint(blob.data(), blob.size());  // the write will fail
    });
    FAIL() << "a failed checkpoint write must not be swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not committed"), std::string::npos)
        << e.what();
  }
}

TEST_P(Durability, FailedWriteSurfacesAtTheNextCut) {
  TempDir dir;
  RunOptions opt = options();
  opt.resilience.checkpoint_dir = dir.path() + "/ckpt";
  const std::string ckpt_dir = opt.resilience.checkpoint_dir;
  try {
    run_world(2, opt, [&](Comm& comm) {
      const std::vector<std::byte> blob = blob_of(comm.rank());
      comm.checkpoint(blob.data(), blob.size());
      // Moved away in one step: removing it file by file would race the
      // first write, which may still be creating its temp file there.
      if (comm.rank() == 0)
        std::filesystem::rename(ckpt_dir, ckpt_dir + ".gone");
      comm.barrier();
      // Whichever write lost its directory, rank 0 reports it here or at
      // the body exit; the world must fail either way.
      for (int e = 0; e < 3; ++e) {
        comm.checkpoint(blob.data(), blob.size());
        comm.barrier();
      }
    });
    FAIL() << "a failed checkpoint write must not be swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not committed"), std::string::npos)
        << e.what();
  }
}

TEST_P(Durability, RemoveOnSuccessLeavesNoDirectoryAndNoTempFile) {
  TempDir dir;
  RunOptions opt = options();
  opt.resilience.checkpoint_dir = dir.path() + "/ckpt";
  opt.resilience.remove_checkpoint_on_success = true;
  run_world(3, opt, [](Comm& comm) {
    const std::vector<std::byte> blob(4096, std::byte{0x5a});
    for (int e = 0; e < 20; ++e) comm.checkpoint(blob.data(), blob.size());
  });
  EXPECT_FALSE(std::filesystem::exists(opt.resilience.checkpoint_dir));
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST_P(Durability, StaleTempFileBesideAGoodCheckpointIsIgnored) {
  TempDir dir;
  CheckpointImage image;
  image.epoch = 4;
  image.blobs = {blob_of(40), blob_of(41)};
  save_checkpoint(dir.path(), image);
  {
    // What a rank 0 killed mid-write leaves behind: a torn temp file.
    std::ofstream tmp(dir.path() + "/ckpt.tmp", std::ios::binary);
    tmp << "torn";
  }
  RunOptions opt = options();
  opt.resilience.checkpoint_dir = dir.path();
  run_world(2, opt, [](Comm& comm) {
    const auto blob = comm.restore();
    require(blob.has_value(), "the committed checkpoint was not restored");
    require(comm.checkpoint_epoch() == 4,
            "restored epoch " + std::to_string(comm.checkpoint_epoch()));
    require(value_of(*blob) == 40 + comm.rank(), "restored the wrong blob");
    const std::vector<std::byte> next = blob_of(50 + comm.rank());
    require(comm.checkpoint(next.data(), next.size()) == 5, "next epoch");
  });
  const auto back = load_checkpoint(dir.path(), 2);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 5);
  EXPECT_EQ(value_of(back->blobs[1]), 51);
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/ckpt.tmp"));
}

INSTANTIATE_TEST_SUITE_P(Worlds, Durability,
                         ::testing::Values(WorldKind::kThreads,
                                           WorldKind::kSpawned),
                         world_name);

}  // namespace
}  // namespace peachy::mpp

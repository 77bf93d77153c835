// Checkpoint/restore and the supervised restart loop: the pieces that turn
// "a rank died" from a propagated error into a bounded recovery.
#include <gtest/gtest.h>

#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>

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
  // With nothing committed before, each rank's file is renamed into place:
  // no spare survives it.
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(std::filesystem::exists(rank_checkpoint_path(dir.path(), r)));
    EXPECT_FALSE(std::filesystem::exists(rank_spare_path(dir.path(), r)));
  }

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

  const std::string file = rank_checkpoint_path(dir.path(), 1);
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
  const std::string file = rank_checkpoint_path(dir.path(), 0);
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
  ASSERT_TRUE(std::filesystem::exists(rank_checkpoint_path(dir.path(), 0)));
  run_world(1, opt, [](Comm& comm) {
    const auto blob = comm.restore();
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(value_of(*blob), 55);
  });
}

TEST(Checkpoint, OnDiskFormatIsPinned) {
  // Rank 0's file of a two-rank epoch-3 checkpoint, byte for byte: u32
  // magic 'PCKR' | u32 version 1 | u32 world | u32 rank | u32 epoch |
  // u64 size | bytes | u32 crc32. Files written by earlier builds must keep
  // loading, and this build must keep writing exactly these bytes.
  const std::vector<unsigned char> golden = {
      0x50, 0x43, 0x4b, 0x52, 0x01, 0x00, 0x00, 0x00,  // magic, version
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // world, rank
      0x03, 0x00, 0x00, 0x00,                          // epoch
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 4 bytes
      0x2a, 0x00, 0x00, 0x00,                          //   42
      0x5e, 0xbc, 0xa9, 0x02};                         // crc32
  TempDir dir;
  CheckpointImage image;
  image.epoch = 3;
  image.blobs = {blob_of(42), {}};
  save_checkpoint(dir.path(), image);
  const std::string file = rank_checkpoint_path(dir.path(), 0);
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

// ---------------------------------------------------------------------------
// The per-rank commit: a spare overwritten in place and exchanged with the
// committed file, and the restore that agrees on one epoch for all ranks.

// The epoch in `path`, or 0 when it is missing or unreadable.
int epoch_in(const std::filesystem::path& path, int world, int rank) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  try {
    return decode_rank_checkpoint(std::as_bytes(std::span(raw)), world, rank)
        .epoch;
  } catch (const Error&) {
    return 0;
  }
}

ino_t inode_of(const std::filesystem::path& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

void commit(const std::string& dir, int world, int rank, int epoch,
            std::int32_t value) {
  const std::vector<std::byte> blob = blob_of(value);
  commit_rank_checkpoint(dir, world, rank, epoch, blob, /*keep_previous=*/true);
}

TEST(RankCommit, ExchangeKeepsThePreviousEpochAsTheSpare) {
  TempDir dir;
  const auto committed = rank_checkpoint_path(dir.path(), 0);
  const auto spare = rank_spare_path(dir.path(), 0);
  commit(dir.path(), 1, 0, 1, 10);
  commit(dir.path(), 1, 0, 2, 20);
  EXPECT_EQ(epoch_in(committed, 1, 0), 2);
  EXPECT_EQ(epoch_in(spare, 1, 0), 1);
  // From here on a cut creates and frees no inode: the two files trade
  // names at every commit.
  const ino_t a = inode_of(committed), b = inode_of(spare);
  commit(dir.path(), 1, 0, 3, 30);
  EXPECT_EQ(inode_of(committed), b);
  EXPECT_EQ(inode_of(spare), a);
  EXPECT_EQ(epoch_in(committed, 1, 0), 3);
  EXPECT_EQ(epoch_in(spare, 1, 0), 2);
  // A shorter blob over a longer spare leaves no stale tail.
  commit_rank_checkpoint(dir.path(), 1, 0, 4, {}, /*keep_previous=*/true);
  const auto back = load_checkpoint(dir.path(), 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 4);
  EXPECT_TRUE(back->blobs[0].empty());
}

TEST(RankCommit, FailedCommitThrowsAndLeavesTheCommittedFile) {
  TempDir dir;
  commit(dir.path(), 1, 0, 1, 10);
  // A directory where the spare should be: the in-place write fails.
  std::filesystem::create_directory(rank_spare_path(dir.path(), 0));
  try {
    commit(dir.path(), 1, 0, 2, 20);
    FAIL() << "a failed commit must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("epoch 2 of rank 0 was not committed"),
              std::string::npos)
        << e.what();
  }
  const auto back = load_checkpoint(dir.path(), 1);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, 1);
  EXPECT_EQ(value_of(back->blobs[0]), 10);
}

TEST(RankCommit, ChooseEpochPicksTheNewestEpochEveryRankHolds) {
  // (committed, spare) per rank; 0 is a missing or torn file.
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{5, 4, 5, 4}), 5);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{5, 4, 4, 3}), 4);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{4, 5, 4, 0}), 4);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{4, 3, 5, 4, 4, 0}), 4);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{2, 1, 4, 3}), 0);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{0, 0, 0, 0}), 0);
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{}), 0);
  // A rank that could not read its committed file sends -1: no choice.
  EXPECT_EQ(choose_epoch(std::vector<std::int64_t>{5, 4, -1, -1}), -1);
}

// Invariant: a committed file that is corrupt, truncated or names another
// rank or world fails restore() loudly on every rank, never only on its
// own (a peer waiting for it would hang on mailboxes).
TEST(RankCommit, UnreadableCommittedFileFailsRestoreOnEveryRank) {
  const auto flip = [](const std::string& dir) {
    std::fstream f(rank_checkpoint_path(dir, 1),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('\x7f');
  };
  const auto truncate = [](const std::string& dir) {
    const auto file = rank_checkpoint_path(dir, 1);
    std::filesystem::resize_file(file, std::filesystem::file_size(file) - 1);
  };
  const auto other_rank = [](const std::string& dir) {
    std::filesystem::copy_file(
        rank_checkpoint_path(dir, 0), rank_checkpoint_path(dir, 1),
        std::filesystem::copy_options::overwrite_existing);
  };
  const auto other_world = [](const std::string& dir) {
    const std::vector<std::byte> blob = blob_of(1);
    commit_rank_checkpoint(dir, 3, 1, 2, blob, /*keep_previous=*/false);
  };
  using Damage = std::function<void(const std::string&)>;
  for (const Damage& damage : {Damage(flip), Damage(truncate),
                               Damage(other_rank), Damage(other_world)}) {
    TempDir dir;
    save_checkpoint(dir.path(), {2, {blob_of(20), blob_of(21)}});
    damage(dir.path());
    RunOptions opt;
    opt.resilience.checkpoint_dir = dir.path();
    std::atomic<int> threw{0};
    EXPECT_THROW(run_world(2, opt,
                           [&](Comm& comm) {
                             try {
                               comm.restore();
                             } catch (const Error&) {
                               threw.fetch_add(1);
                               throw;
                             }
                           }),
                 Error);
    EXPECT_EQ(threw.load(), 2);
  }
}

// Invariant: restore() hands every rank its blob of the newest epoch that
// all ranks hold, from the committed file or the spare, and nullopt on
// every rank when no epoch is common.
TEST(RankCommit, RestoreAgreesOnTheNewestEpochEveryRankHolds) {
  TempDir dir;
  // Rank 0 finished cut 3; rank 1 was killed after writing its spare but
  // before the exchange; rank 2 was killed while writing its spare.
  for (int r = 0; r < 3; ++r)
    for (int e = 1; e <= 2; ++e) commit(dir.path(), 3, r, e, 10 * e + r);
  commit(dir.path(), 3, 0, 3, 30);
  {
    const std::vector<std::byte> blob = blob_of(31);
    const auto image = encode_rank_checkpoint(3, 1, 3, blob);
    std::ofstream(rank_spare_path(dir.path(), 1), std::ios::binary)
        .write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
    std::ofstream(rank_spare_path(dir.path(), 2), std::ios::binary) << "torn";
  }
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(3, opt, [](Comm& comm) {
    const auto blob = comm.restore();
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(comm.checkpoint_epoch(), 2);
    EXPECT_EQ(value_of(*blob), 20 + comm.rank());
  });
  const auto image = load_checkpoint(dir.path(), 3);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->epoch, 2);

  // Rank 1 alone holds epochs 3 and 4 now: nothing is common.
  TempDir apart;
  commit(apart.path(), 2, 0, 1, 1);
  commit(apart.path(), 2, 0, 2, 2);
  commit(apart.path(), 2, 1, 3, 3);
  commit(apart.path(), 2, 1, 4, 4);
  opt.resilience.checkpoint_dir = apart.path();
  run_world(2, opt, [](Comm& comm) {
    EXPECT_FALSE(comm.restore().has_value());
    EXPECT_EQ(comm.checkpoint_epoch(), 0);
  });
  EXPECT_FALSE(load_checkpoint(apart.path(), 2).has_value());
  // Nothing agreed, nothing kept: no rank's file can pair with a later
  // run's epochs.
  for (int r = 0; r < 2; ++r) {
    EXPECT_FALSE(
        std::filesystem::exists(rank_checkpoint_path(apart.path(), r)));
    EXPECT_FALSE(std::filesystem::exists(rank_spare_path(apart.path(), r)));
  }
}

// Invariant: after restore() no rank keeps a file newer than the agreed
// epoch, and a Comm that restored nothing replaces the files of an earlier
// run at its first cut. A later crash therefore never finds a stale epoch
// to pair with a replayed one.
TEST(RankCommit, RestoreDropsNewerEpochsAndAFreshCutDropsOldFiles) {
  TempDir dir;
  commit(dir.path(), 3, 0, 1, 1);
  commit(dir.path(), 3, 0, 2, 2);  // rank 0: committed 2, spare 1
  commit(dir.path(), 3, 1, 1, 1);
  commit(dir.path(), 3, 1, 2, 2);
  commit(dir.path(), 3, 1, 3, 3);  // rank 1: committed 3, spare 2
  commit(dir.path(), 3, 2, 2, 2);
  {
    // Rank 2: committed 2 and a complete spare of epoch 3 (killed between
    // the write and the exchange).
    const std::vector<std::byte> blob = blob_of(3);
    const auto image = encode_rank_checkpoint(3, 2, 3, blob);
    std::ofstream(rank_spare_path(dir.path(), 2), std::ios::binary)
        .write(reinterpret_cast<const char*>(image.data()),
               static_cast<std::streamsize>(image.size()));
  }
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(3, opt, [](Comm& comm) {
    const auto blob = comm.restore();
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(value_of(*blob), 2);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(epoch_in(rank_checkpoint_path(dir.path(), r), 3, r), 2) << r;
    EXPECT_LT(epoch_in(rank_spare_path(dir.path(), r), 3, r), 2) << r;
  }

  // A new run that does not restore: its first cut leaves epoch 1 alone.
  run_world(3, opt, [](Comm& comm) {
    const std::vector<std::byte> blob = blob_of(100);
    EXPECT_EQ(comm.checkpoint(blob.data(), blob.size()), 1);
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(epoch_in(rank_checkpoint_path(dir.path(), r), 3, r), 1) << r;
    EXPECT_FALSE(std::filesystem::exists(rank_spare_path(dir.path(), r))) << r;
  }
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
  // An empty slab commits as a zero-length blob and restores as one, over
  // mailboxes and over sockets.
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

TEST(Resilience, CheckpointCommitIsObservedOnEveryRank) {
  const bool was = obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  obs::Histogram& writes = registry.histogram("mpp.checkpoint_write_ns");
  obs::Counter& cuts = registry.counter("mpp.checkpoints");
  obs::Counter& bytes = registry.counter("mpp.checkpoint_bytes");
  const std::uint64_t writes_before = writes.count();
  const std::uint64_t cuts_before = cuts.value();
  const std::uint64_t bytes_before = bytes.value();
  obs::Tracer::global().clear();
  TempDir dir;
  RunOptions opt;
  opt.resilience.checkpoint_dir = dir.path();
  run_world(2, opt, [](Comm& comm) {
    const std::vector<std::byte> blob = blob_of(comm.rank());
    for (int e = 0; e < 4; ++e) comm.checkpoint(blob.data(), blob.size());
  });
  obs::set_enabled(was);
  // Each rank times its own commit; rank 0 counts the cut once; the bytes
  // are every rank's blob.
  EXPECT_EQ(writes.count() - writes_before, 8u);
  EXPECT_EQ(cuts.value() - cuts_before, 4u);
  EXPECT_EQ(bytes.value() - bytes_before, 4u * 2u * sizeof(std::int32_t));
  for (const auto& sample : registry.samples())
    EXPECT_NE(sample.name, "mpp.checkpoint_wait_ns");
  // Every commit is a span inside its rank's cut span, on the rank's
  // thread.
  std::vector<obs::TraceEvent> cut_spans, write_spans;
  for (const auto& ev : obs::Tracer::global().snapshot()) {
    if (ev.name == "mpp.checkpoint") cut_spans.push_back(ev);
    if (ev.name == "mpp.checkpoint_write") write_spans.push_back(ev);
  }
  ASSERT_EQ(cut_spans.size(), 8u);
  ASSERT_EQ(write_spans.size(), 8u);
  for (const auto& w : write_spans) {
    const bool inside = std::any_of(
        cut_spans.begin(), cut_spans.end(), [&](const obs::TraceEvent& c) {
          return c.tid == w.tid && c.ts_ns <= w.ts_ns &&
                 w.ts_ns + w.dur_ns <= c.ts_ns + c.dur_ns;
        });
    EXPECT_TRUE(inside);
  }
}

// ---------------------------------------------------------------------------
// The durability contract, on threaded and spawned worlds alike: every
// rank's cut is committed when checkpoint() returns, so only a rank killed
// mid-cut leaves its previous epoch, and the world then restores that one.

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
    // Every rank's last cut is on disk before checkpoint() returns.
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
      comm.barrier();  // every rank's first cut is committed
      // Moved away in one step, so every rank's next commit fails.
      if (comm.rank() == 0)
        std::filesystem::rename(ckpt_dir, ckpt_dir + ".gone");
      comm.barrier();
      // Every rank's next cut lost its directory and throws.
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
  for (int r = 0; r < 2; ++r) {
    // What a rank killed mid-write leaves behind: a torn spare.
    std::ofstream tmp(rank_spare_path(dir.path(), r), std::ios::binary);
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
  // The torn spare was overwritten and now holds epoch 4.
  EXPECT_EQ(epoch_in(rank_spare_path(dir.path(), 1), 2, 1), 4);
}

TEST_P(Durability, SigkillOfANonRootRankMidCutRestoresByteIdentically) {
  // Each rank folds its rank into a running hash every round and cuts
  // after every round. In the first attempt rank 2 dies mid-cut: its spare
  // is torn and it is SIGKILLed (or throws, on threads) before the
  // exchange. The restart restores the newest epoch every rank holds and
  // replays from it; the gathered states must equal an unbroken run's.
  constexpr int kRounds = 12;
  constexpr int kDieAt = 7;
  TempDir dir;
  const std::string ckpt_dir = dir.path() + "/killed";
  const auto body = [&ckpt_dir](bool kill) {
    return [kill, &ckpt_dir](Comm& comm) {
      std::uint64_t state = 1469598103934665603ull;
      int round = 0;
      bool die = kill;
      if (const auto blob = comm.restore()) {
        require(blob->size() == sizeof(state), "restored blob size");
        std::memcpy(&state, blob->data(), sizeof(state));
        round = comm.checkpoint_epoch();
        die = false;
      }
      for (; round < kRounds; ++round) {
        state = (state ^ static_cast<std::uint64_t>(comm.rank() + round)) *
                1099511628211ull;
        comm.allreduce_sum(1);
        if (die && comm.rank() == 2 && round + 1 == kDieAt) {
          std::ofstream(rank_spare_path(ckpt_dir, 2),
                        std::ios::binary)
              << "torn";
          if (in_spawned_worker()) ::raise(SIGKILL);
          throw Error("rank 2 died mid-cut");
        }
        comm.checkpoint(&state, sizeof(state));
      }
      const std::vector<std::uint64_t> all = comm.gather(0, std::vector{state});
      if (comm.rank() == 0)
        comm.set_result(all.data(), all.size() * sizeof(std::uint64_t));
    };
  };
  RunOptions clean = options();
  clean.resilience.max_restarts = 1;
  const RunOutcome expected = run_world(3, clean, body(false));
  EXPECT_EQ(expected.restarts, 0);
  RunOptions killed = options();
  killed.resilience.max_restarts = 1;
  killed.resilience.checkpoint_dir = ckpt_dir;
  const RunOutcome got = run_world(3, killed, body(true));
  EXPECT_EQ(got.restarts, 1);
  ASSERT_EQ(got.rank0_result.size(), 3 * sizeof(std::uint64_t));
  EXPECT_EQ(got.rank0_result, expected.rank0_result);
}

INSTANTIATE_TEST_SUITE_P(Worlds, Durability,
                         ::testing::Values(WorldKind::kThreads,
                                           WorldKind::kSpawned),
                         world_name);

}  // namespace
}  // namespace peachy::mpp

// JobStore durability: committed records survive reopen byte-for-byte,
// ids never repeat across restarts, commits are atomic (no .tmp debris),
// and corrupt records are skipped loudly instead of trusted.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "svc/job.hpp"
#include "svc/queue.hpp"

namespace peachy::svc {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/peachy-svc-store-XXXXXX";
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

JobRecord sample_record(std::uint64_t id, JobState state) {
  JobRecord rec;
  rec.id = id;
  rec.state = state;
  rec.spec.kind = JobKind::kDmr;
  rec.spec.tenant = "tenant-" + std::to_string(id % 3);
  rec.spec.name = "job-" + std::to_string(id);
  rec.spec.ranks = 2;
  rec.restarts = static_cast<std::uint32_t>(id % 2);
  rec.peak_rss_bytes = (id + 1) * 4096;
  if (state == JobState::kFailed) rec.error = "worker exploded";
  if (state == JobState::kDone)
    rec.result = {std::byte{0xde}, std::byte{0xad}, std::byte{0xbe}};
  return rec;
}

TEST(JobStore, PutGetRoundTripAndAtomicCommit) {
  TempDir dir;
  JobStore store(dir.path());
  JobRecord rec = sample_record(store.allocate_id(), JobState::kDone);
  store.put(rec);

  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir.path()) / "jobs" /
      ("job-" + std::to_string(rec.id) + ".rec.tmp")));

  const auto back = store.get(rec.id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, rec.id);
  EXPECT_EQ(back->state, JobState::kDone);
  EXPECT_EQ(back->spec.tenant, rec.spec.tenant);
  EXPECT_EQ(back->spec.name, rec.spec.name);
  EXPECT_EQ(back->result, rec.result);
  EXPECT_EQ(back->restarts, rec.restarts);
  EXPECT_EQ(back->peak_rss_bytes, rec.peak_rss_bytes);
}

TEST(JobStore, LoadAllSurvivesReopenInIdOrder) {
  TempDir dir;
  {
    JobStore store(dir.path());
    store.put(sample_record(store.allocate_id(), JobState::kDone));
    store.put(sample_record(store.allocate_id(), JobState::kQueued));
    store.put(sample_record(store.allocate_id(), JobState::kRunning));
    store.put(sample_record(store.allocate_id(), JobState::kFailed));
  }
  JobStore reopened(dir.path());
  const auto all = reopened.load_all();
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].id, all[i].id);
  EXPECT_EQ(all[3].error, "worker exploded");
  EXPECT_EQ(reopened.corrupt_skipped(), 0);
}

TEST(JobStore, IdsContinueAfterRestart) {
  TempDir dir;
  std::uint64_t last = 0;
  {
    JobStore store(dir.path());
    store.put(sample_record(store.allocate_id(), JobState::kQueued));
    last = store.allocate_id();
    store.put(sample_record(last, JobState::kQueued));
  }
  JobStore reopened(dir.path());
  EXPECT_GT(reopened.allocate_id(), last)
      << "a restarted daemon must never reuse an id";
}

TEST(JobStore, CorruptRecordIsSkippedNotTrusted) {
  TempDir dir;
  std::uint64_t good_id = 0, bad_id = 0;
  {
    JobStore store(dir.path());
    good_id = store.allocate_id();
    store.put(sample_record(good_id, JobState::kQueued));
    bad_id = store.allocate_id();
    store.put(sample_record(bad_id, JobState::kQueued));
  }
  // Flip one payload byte: the CRC must catch it.
  const auto bad_path = std::filesystem::path(dir.path()) / "jobs" /
                        ("job-" + std::to_string(bad_id) + ".rec");
  {
    std::fstream f(bad_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    f.put('\xff');
  }
  JobStore reopened(dir.path());
  const auto all = reopened.load_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].id, good_id);
  EXPECT_EQ(reopened.corrupt_skipped(), 1);
  EXPECT_FALSE(reopened.get(bad_id).has_value());
  // The corrupt id is still burned: no reuse.
  EXPECT_GT(reopened.allocate_id(), bad_id);
}

TEST(JobStore, EraseAndCheckpointDirLifecycle) {
  TempDir dir;
  JobStore store(dir.path());
  const std::uint64_t id = store.allocate_id();
  store.put(sample_record(id, JobState::kQueued));

  const std::string ckpt = store.checkpoint_dir(id);
  std::filesystem::create_directories(ckpt);
  std::ofstream(ckpt + "/rank-0.ckpt") << "bytes";
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  store.remove_checkpoint(id);
  EXPECT_FALSE(std::filesystem::exists(ckpt));

  store.erase(id);
  EXPECT_FALSE(store.get(id).has_value());
  EXPECT_TRUE(store.load_all().empty());
}

TEST(JobStore, RewriteReplacesTheCommittedState) {
  TempDir dir;
  JobStore store(dir.path());
  JobRecord rec = sample_record(store.allocate_id(), JobState::kQueued);
  store.put(rec);
  rec.state = JobState::kRunning;
  store.put(rec);
  rec.state = JobState::kDone;
  rec.result = {std::byte{1}, std::byte{2}};
  store.put(rec);
  const auto back = store.get(rec.id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->state, JobState::kDone);
  EXPECT_EQ(back->result.size(), 2u);
}

TEST(JobStore, StaleTempRecordBesideItsRecordIsIgnored) {
  // A daemon killed between the write and the rename of a commit leaves a
  // complete job-N.rec.tmp beside the committed job-N.rec. It is not a
  // second record of job N, and not a corrupt one either.
  TempDir dir;
  JobStore store(dir.path());
  JobRecord rec = sample_record(store.allocate_id(), JobState::kRunning);
  const std::vector<std::byte> stale = encode_record(rec);
  rec.state = JobState::kDone;
  rec.result = {std::byte{7}};
  store.put(rec);
  std::ofstream(std::filesystem::path(dir.path()) / "jobs" /
                    ("job-" + std::to_string(rec.id) + ".rec.tmp"),
                std::ios::binary)
      .write(reinterpret_cast<const char*>(stale.data()),
             static_cast<std::streamsize>(stale.size()));

  JobStore reopened(dir.path());
  const auto all = reopened.load_all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].id, rec.id);
  EXPECT_EQ(all[0].state, JobState::kDone);
  EXPECT_EQ(all[0].result, rec.result);
  EXPECT_EQ(reopened.corrupt_skipped(), 0);
}

}  // namespace
}  // namespace peachy::svc

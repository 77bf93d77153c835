// Wire codecs of the job service: spec/status/brief/stats round trips and
// loud failure on truncated payloads — a malformed client must produce a
// kError reply, never a daemon crash or a silently wrong job.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "svc/job.hpp"
#include "svc/protocol.hpp"

namespace peachy::svc {
namespace {

TEST(SvcProtocol, StringRoundTripIncludingEmpty) {
  std::vector<std::byte> buf;
  append_string(buf, "tenant-a");
  append_string(buf, "");
  append_string(buf, "x");
  bytes::Reader in(buf);
  EXPECT_EQ(in.string(), "tenant-a");
  EXPECT_EQ(in.string(), "");
  EXPECT_EQ(in.string(), "x");
  EXPECT_TRUE(in.at_end());
}

TEST(SvcProtocol, TruncatedStringThrows) {
  std::vector<std::byte> buf;
  append_string(buf, "hello");
  buf.resize(buf.size() - 2);
  bytes::Reader in(buf);
  EXPECT_THROW(in.string(), Error);
}

TEST(SvcProtocol, SandpileSpecRoundTrip) {
  JobSpec spec;
  spec.kind = JobKind::kSandpile;
  spec.tenant = "alice";
  spec.name = "pile-1";
  spec.ranks = 4;
  spec.sandpile = {128, 96, 250000, 2, 8};
  std::vector<std::byte> buf;
  append_spec(buf, spec);
  bytes::Reader in(buf);
  const JobSpec back = read_spec(in);
  EXPECT_EQ(back.kind, JobKind::kSandpile);
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.name, "pile-1");
  EXPECT_EQ(back.ranks, 4u);
  EXPECT_EQ(back.sandpile.height, 128u);
  EXPECT_EQ(back.sandpile.width, 96u);
  EXPECT_EQ(back.sandpile.grains, 250000u);
  EXPECT_EQ(back.sandpile.halo_depth, 2u);
  EXPECT_EQ(back.sandpile.checkpoint_every, 8u);
}

TEST(SvcProtocol, DmrAndWfsimSpecsRoundTrip) {
  JobSpec dmr;
  dmr.kind = JobKind::kDmr;
  dmr.tenant = "bob";
  dmr.ranks = 3;
  dmr.dmr = {50000, 77, 256, 32, 16, 4, 2};
  std::vector<std::byte> buf;
  append_spec(buf, dmr);
  bytes::Reader din(buf);
  const JobSpec dback = read_spec(din);
  EXPECT_EQ(dback.dmr.words, 50000u);
  EXPECT_EQ(dback.dmr.seed, 77u);
  EXPECT_EQ(dback.dmr.map_epochs, 4u);
  EXPECT_EQ(dback.dmr.checkpoint_every, 2u);

  JobSpec wf;
  wf.kind = JobKind::kWfsim;
  wf.wfsim = {12, 32, 3};
  buf.clear();
  append_spec(buf, wf);
  bytes::Reader win(buf);
  const JobSpec wback = read_spec(win);
  EXPECT_EQ(wback.wfsim.sweep_steps, 12u);
  EXPECT_EQ(wback.wfsim.nodes_on, 32u);
  EXPECT_EQ(wback.wfsim.pstate, 3u);
}

TEST(SvcProtocol, SpecRejectsUnknownKindAndAbsurdRanks) {
  JobSpec spec;
  std::vector<std::byte> buf;
  append_spec(buf, spec);
  buf[0] = static_cast<std::byte>(9);  // kind = 9
  bytes::Reader bad_kind(buf);
  EXPECT_THROW(read_spec(bad_kind), Error);

  JobSpec wide;
  wide.ranks = 100000;
  buf.clear();
  append_spec(buf, wide);
  bytes::Reader too_wide(buf);
  EXPECT_THROW(read_spec(too_wide), Error);
}

TEST(SvcProtocol, StatusRoundTrip) {
  JobStatus s;
  s.id = 42;
  s.state = JobState::kFailed;
  s.kind = JobKind::kDmr;
  s.tenant = "carol";
  s.name = "wordcount";
  s.error = "rank 1 died";
  s.restarts = 3;
  s.peak_rss_bytes = 7ull << 20;
  s.has_result = false;
  std::vector<std::byte> buf;
  append_status(buf, s);
  bytes::Reader in(buf);
  const JobStatus back = read_status(in);
  EXPECT_EQ(back.id, 42u);
  EXPECT_EQ(back.state, JobState::kFailed);
  EXPECT_EQ(back.kind, JobKind::kDmr);
  EXPECT_EQ(back.tenant, "carol");
  EXPECT_EQ(back.error, "rank 1 died");
  EXPECT_EQ(back.restarts, 3u);
  EXPECT_EQ(back.peak_rss_bytes, 7ull << 20);
  EXPECT_FALSE(back.has_result);
}

TEST(SvcProtocol, BriefsAndStatsRoundTrip) {
  std::vector<JobBrief> briefs = {
      {1, JobKind::kSandpile, JobState::kDone, "a", "j1"},
      {2, JobKind::kWfsim, JobState::kQueued, "b", ""},
  };
  std::vector<std::byte> buf;
  append_briefs(buf, briefs);
  bytes::Reader bin(buf);
  const auto back = read_briefs(bin);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 1u);
  EXPECT_EQ(back[1].state, JobState::kQueued);
  EXPECT_EQ(back[1].tenant, "b");

  ServiceStats stats;
  stats.queued = 5;
  stats.running = 2;
  stats.pool_ranks = 8;
  stats.busy_ranks = 6;
  stats.submitted = 100;
  stats.completed = 93;
  stats.rejected = 7;
  buf.clear();
  append_stats(buf, stats);
  bytes::Reader sin(buf);
  const ServiceStats sback = read_stats(sin);
  EXPECT_EQ(sback.queued, 5u);
  EXPECT_EQ(sback.busy_ranks, 6u);
  EXPECT_EQ(sback.rejected, 7u);
}

TEST(SvcProtocol, StateAndKindNamesAreStable) {
  EXPECT_STREQ(to_string(JobState::kQueued), "QUEUED");
  EXPECT_STREQ(to_string(JobState::kCancelled), "CANCELLED");
  EXPECT_STREQ(to_string(JobKind::kWfsim), "wfsim");
  EXPECT_EQ(job_kind_from_string("dmr"), JobKind::kDmr);
  EXPECT_THROW(job_kind_from_string("mystery"), Error);
  EXPECT_TRUE(is_terminal(JobState::kFailed));
  EXPECT_FALSE(is_terminal(JobState::kRunning));
}

}  // namespace
}  // namespace peachy::svc

// Process-isolated job execution: crash containment (a job that abort()s
// is a FAILED record with a flight dump, not a daemon outage), mid-run
// cancellation via SIGTERM -> cooperative abort, wall-clock deadlines,
// kernel resource fences, and threads/process result parity. Every test
// here forks real worker processes, so the file carries the `spawn`
// label and stays out of the tsan preset (TSan cannot follow threads
// created after fork); the asan preset runs it in full.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "net/process.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/runner.hpp"

namespace peachy::svc {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/peachy-svc-process-XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DaemonOptions base_options(const std::string& state_dir) {
  DaemonOptions o;
  o.state_dir = state_dir;
  o.pool_ranks = 4;
  return o;
}

JobSpec process_dmr(const std::string& tenant, std::uint32_t map_epochs = 2) {
  JobSpec spec;
  spec.kind = JobKind::kDmr;
  spec.tenant = tenant;
  spec.ranks = 2;
  spec.isolation = Isolation::kProcess;
  spec.dmr = {2000, 7, 32, 8, 4, map_epochs, 1};
  return spec;
}

void wait_until_running(const Client& client, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (client.status(id).state == JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
}

// --- Crash containment -----------------------------------------------------

TEST(SvcProcessIsolation, CrashingJobFailsWithDumpWhileOtherTenantCompletes) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());

  // Tenant "evil": a process-isolated dmr job whose mapper abort()s after
  // 100 words. Tenant "good": an ordinary job submitted alongside.
  JobSpec evil = process_dmr("evil");
  evil.name = "crasher";
  evil.dmr.fault_abort_at = 100;
  JobSpec good = process_dmr("good");
  good.name = "bystander";
  const SubmitResult esub = client.submit(evil);
  const SubmitResult gsub = client.submit(good);
  ASSERT_TRUE(esub.accepted && gsub.accepted);

  // The crasher dies on every supervised restart and lands FAILED with a
  // triaged cause and the flight-dump path in the error string.
  const JobStatus failed = client.await(esub.id, 120s);
  ASSERT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.error.find("worker crashed"), std::string::npos)
      << failed.error;
  EXPECT_NE(failed.error.find("flight dump: "), std::string::npos)
      << failed.error;
  // The named flight directory survives and holds at least one
  // post-mortem from a dying worker.
  const fs::path flight =
      fs::path(dir.path()) / "flight" / ("job-" + std::to_string(esub.id));
  ASSERT_TRUE(fs::exists(flight)) << flight;
  bool have_dump = false;
  for (const auto& entry : fs::directory_iterator(flight))
    have_dump |= entry.path().filename().string().rfind("flight-", 0) == 0;
  EXPECT_TRUE(have_dump) << "no flight-<rank>.json under " << flight;

  // The daemon kept serving and the bystander's result is byte-identical
  // to the same job run without a crasher next door.
  const JobStatus done = client.await(gsub.id, 120s);
  ASSERT_EQ(done.state, JobState::kDone);
  const auto got = client.result(gsub.id);

  TempDir quiet_dir;
  Daemon quiet(base_options(quiet_dir.path()));
  Client quiet_client("127.0.0.1", quiet.port());
  const SubmitResult ref = quiet_client.submit(good);
  ASSERT_TRUE(ref.accepted);
  ASSERT_EQ(quiet_client.await(ref.id, 120s).state, JobState::kDone);
  EXPECT_EQ(got, quiet_client.result(ref.id));
}

TEST(SvcProcessIsolation, DoneJobsLeaveNoFlightDirectory) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());
  const SubmitResult sub = client.submit(process_dmr("alice"));
  ASSERT_TRUE(sub.accepted);
  ASSERT_EQ(client.await(sub.id, 120s).state, JobState::kDone);
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / "flight" /
                          ("job-" + std::to_string(sub.id))));
}

// --- Mid-run cancellation, process substrate -------------------------------

TEST(SvcProcessIsolation, DmrJobCancelsMidRunViaSigterm) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());
  // Enough epochs to still be running when the cancel lands: with 200,
  // the job finished DONE first in 4 of 20 runs on a 4-vCPU host.
  const SubmitResult sub =
      client.submit(process_dmr("alice", /*map_epochs=*/2000));
  ASSERT_TRUE(sub.accepted);
  wait_until_running(client, sub.id);
  client.cancel(sub.id);
  // SIGTERM reaches the workers, they abandon at the next epoch barrier,
  // and the job lands CANCELLED — not FAILED — well within the grace.
  const JobStatus s = client.await(sub.id, 60s);
  EXPECT_EQ(s.state, JobState::kCancelled);
  EXPECT_EQ(daemon.pending_cancels(), 0);
}

TEST(SvcProcessIsolation, WfsimJobCancelsMidRunViaSigterm) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());
  JobSpec spec;
  spec.kind = JobKind::kWfsim;
  spec.tenant = "alice";
  spec.ranks = 2;
  spec.isolation = Isolation::kProcess;
  spec.wfsim = {/*sweep_steps=*/20000, 16, 3};
  const SubmitResult sub = client.submit(spec);
  ASSERT_TRUE(sub.accepted);
  wait_until_running(client, sub.id);
  client.cancel(sub.id);
  const JobStatus s = client.await(sub.id, 60s);
  EXPECT_EQ(s.state, JobState::kCancelled);
}

// --- Deadlines and resource fences -----------------------------------------

TEST(SvcProcessIsolation, WallClockDeadlineFailsTheJobAsTimeout) {
  TempDir dir;
  DaemonOptions o = base_options(dir.path());
  o.term_grace_ms = 500;
  Daemon daemon(o);
  Client client("127.0.0.1", daemon.port());
  // A pile big enough to run for many seconds, capped at 400 ms. (64x64
  // with the same grains stabilizes in about 300 ms on a 4-vCPU host.)
  JobSpec spec;
  spec.kind = JobKind::kSandpile;
  spec.tenant = "alice";
  spec.ranks = 2;
  spec.isolation = Isolation::kProcess;
  spec.deadline_ms = 400;
  spec.sandpile = {256, 256, 40000000, 1, 0};
  const SubmitResult sub = client.submit(spec);
  ASSERT_TRUE(sub.accepted);
  const JobStatus s = client.await(sub.id, 60s);
  ASSERT_EQ(s.state, JobState::kFailed);
  EXPECT_NE(s.error.find("deadline exceeded"), std::string::npos) << s.error;
}

TEST(SvcProcessIsolation, RlimitAddressSpaceFencesChildAllocations) {
  net::ProcessLauncher launcher;
  net::ChildLimits limits;
  limits.address_space_bytes = 256ull << 20;
  launcher.set_child_limits(limits);
  launcher.fork_workers(1, [](int) {
    // Far past the fence: the kernel must refuse, malloc returns nullptr.
    void* p = std::malloc(1ull << 30);
    const int rc = p == nullptr ? 3 : 7;
    std::free(p);
    return rc;
  });
  const std::vector<int> codes = launcher.wait_all(30000);
  ASSERT_EQ(codes.size(), 1u);
  // Plain builds see the polite path (malloc returns nullptr -> exit 3);
  // sanitizer allocators may instead die loudly when the kernel refuses.
  // Either way the fence held: the only forbidden outcome is exit 7, the
  // allocation succeeding.
  EXPECT_NE(codes[0], 7) << "a 1 GiB malloc slipped past RLIMIT_AS";
  EXPECT_NE(codes[0], 0);
}

TEST(SvcProcessIsolation, RlimitCpuKillsASpinningChild) {
  net::ProcessLauncher launcher;
  net::ChildLimits limits;
  limits.cpu_seconds = 1;
  launcher.set_child_limits(limits);
  launcher.fork_workers(1, [](int) {
    volatile std::uint64_t x = 0;
    for (;;) x = x + 1;  // burns CPU until SIGXCPU
    return 0;
  });
  const std::vector<int> codes = launcher.wait_all(30000);
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(net::classify_exit_code(codes[0]), net::ExitClass::kSignaled)
      << "exit code " << codes[0] << ": " << net::describe_exit_code(codes[0]);
}

// --- Parity ----------------------------------------------------------------

TEST(SvcProcessIsolation, ProcessAndThreadedRunsAgreeByteForByte) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());

  JobSpec threaded = process_dmr("alice");
  threaded.isolation = Isolation::kThreads;
  JobSpec forked = process_dmr("alice");
  const SubmitResult t = client.submit(threaded);
  const SubmitResult f = client.submit(forked);
  ASSERT_TRUE(t.accepted && f.accepted);
  ASSERT_EQ(client.await(t.id, 120s).state, JobState::kDone);
  ASSERT_EQ(client.await(f.id, 120s).state, JobState::kDone);
  EXPECT_EQ(client.result(t.id), client.result(f.id))
      << "isolation must not change the answer";
}

// --- Peak-RSS accounting ---------------------------------------------------

TEST(SvcProcessIsolation, ProcessJobsReportPeakRssThreadedJobsDoNot) {
  TempDir dir;
  Daemon daemon(base_options(dir.path()));
  Client client("127.0.0.1", daemon.port());

  JobSpec threaded = process_dmr("alice");
  threaded.isolation = Isolation::kThreads;
  JobSpec forked = process_dmr("alice");
  const SubmitResult t = client.submit(threaded);
  const SubmitResult f = client.submit(forked);
  ASSERT_TRUE(t.accepted && f.accepted);
  const JobStatus ts = client.await(t.id, 120s);
  const JobStatus fs_ = client.await(f.id, 120s);
  ASSERT_EQ(ts.state, JobState::kDone);
  ASSERT_EQ(fs_.state, JobState::kDone);
  // wait4 sees real worker processes: any live process has at least a page
  // of RSS, and in practice megabytes. Threaded ranks share the daemon's
  // address space — there is nothing separate to meter, so the field is 0.
  EXPECT_GT(fs_.peak_rss_bytes, 1u << 20)
      << "forked workers must report a believable RSS peak";
  EXPECT_EQ(ts.peak_rss_bytes, 0u)
      << "threaded jobs have no separate process to meter";
}

}  // namespace
}  // namespace peachy::svc

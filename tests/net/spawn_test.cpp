// Spawned mpp worlds (mpp::run_world with RunOptions::spawn): ranks as real
// forked (or fork+exec'd) processes, wired up through the rendezvous
// server. These tests fork, so they carry the `spawn` label and are
// excluded from the tsan preset (TSan cannot follow threads created after
// fork; ASan is fine).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "mpp/mpp.hpp"
#include "net/process.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

namespace peachy {
namespace {

/// Options for a spawned world: plain fork() children, or workers exec'd
/// from `argv` when it is non-empty.
mpp::RunOptions spawned(std::vector<std::string> argv = {}) {
  return {.transport = mpp::TransportKind::kTcp,
          .spawn = true,
          .worker_argv = std::move(argv)};
}

TEST(Spawn, ForkedWorkersAllreduceAndReturnResult) {
  const mpp::RunOutcome out = mpp::run_world(
      3, spawned(), [](mpp::Comm& comm) {
        const std::int64_t sum = comm.allreduce_sum(comm.rank() + 1);
        EXPECT_EQ(sum, 6);  // runs inside the worker process
        if (comm.rank() == 0) {
          const std::uint32_t answer = static_cast<std::uint32_t>(sum);
          comm.set_result(&answer, sizeof(answer));
        }
      });
  ASSERT_EQ(out.rank0_result.size(), sizeof(std::uint32_t));
  std::uint32_t answer = 0;
  std::memcpy(&answer, out.rank0_result.data(), sizeof(answer));
  EXPECT_EQ(answer, 6u);
  EXPECT_GT(out.comm.messages_sent, 0u);
}

TEST(Spawn, WorkerExceptionPropagatesNamingRank) {
  try {
    mpp::run_world(2, spawned(), [](mpp::Comm& comm) {
      if (comm.rank() == 1) throw Error("boom in worker");
      // Rank 0 blocks on rank 1 and is released by its death.
      std::int64_t x = 0;
      comm.recv(1, 1, &x, 1);
    });
    FAIL() << "worker failure should propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom in worker"), std::string::npos) << msg;
  }
}

TEST(Spawn, KilledWorkerIsDetectedNotHung) {
  try {
    mpp::run_world(2, spawned(), [](mpp::Comm& comm) {
      if (comm.rank() == 1) ::raise(SIGKILL);
      std::int64_t x = 0;
      comm.recv(1, 1, &x, 1);  // released as PeerDied by the death
    });
    FAIL() << "killed worker should surface as an error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("died before reporting"), std::string::npos) << msg;
    // The report names the root cause decoded from the wait status.
    EXPECT_NE(msg.find("signal 9"), std::string::npos) << msg;
  }
}

TEST(Spawn, WaitAllKillsAndReapsASleeperAtTheDeadline) {
  net::ProcessLauncher launcher;
  launcher.fork_workers(2, [](int rank) {
    if (rank == 1) ::sleep(30);  // far past the deadline
    return 0;
  });
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<int> codes = launcher.wait_all(300);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "wait_all hung";
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 255);  // SIGKILLed straggler
  EXPECT_NE(net::describe_exit_code(codes[1]).find("deadline"),
            std::string::npos)
      << net::describe_exit_code(codes[1]);
}

TEST(Spawn, RespawnReplacesARanksProcess) {
  net::ProcessLauncher launcher;
  launcher.fork_workers(1, [](int) {
    ::sleep(30);
    return 0;
  });
  ASSERT_EQ(launcher.spawned(), 1);
  // Each respawn SIGKILLs + reaps the previous incarnation and forks a
  // fresh one from the recorded recipe.
  const pid_t second = launcher.respawn(0);
  const pid_t third = launcher.respawn(0);
  EXPECT_GT(second, 0);
  EXPECT_GT(third, 0);
  EXPECT_NE(second, third);
  EXPECT_EQ(launcher.spawned(), 1);
  const std::vector<int> codes = launcher.wait_all(200);
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0], 255);  // the live incarnation still sleeps
}

/// Open descriptors of this process (the listing's own fd included, the
/// same on every call).
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

TEST(Spawn, LauncherClosesEveryPidfdItOpens) {
  // A long-lived daemon runs launcher after launcher: each reap path
  // (respawn, wait_all, the destructor's kill-and-reap) must close the
  // child's pidfd, or the daemon slowly runs out of descriptors.
  const auto sleeper = [](int) {
    ::sleep(30);
    return 0;
  };
  const std::size_t before = open_fds();
  {
    net::ProcessLauncher launcher;
    launcher.fork_workers(1, sleeper);
    for (int i = 0; i < 3; ++i) launcher.respawn(0);
    const std::vector<int> codes = launcher.wait_all(100);
    ASSERT_EQ(codes.size(), 1u);
    EXPECT_EQ(codes[0], 255);
  }
  EXPECT_EQ(open_fds(), before) << "after respawn + wait_all";
  {
    net::ProcessLauncher launcher;
    launcher.fork_workers(2, sleeper);
  }  // destroyed without wait_all: kills and reaps both
  EXPECT_EQ(open_fds(), before) << "after the destructor's reap";
}

TEST(Spawn, WaitAllReapsChildrenItHasNoPidfdFor) {
  // Out of descriptors, pidfd_open fails; wait_all must then fall back to
  // re-scanning by pid, and still return soon after the children exit with
  // their exit codes. A helper process runs the launcher so the descriptor
  // limit stays out of this one.
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    // Take every descriptor below a small limit, so poll still accepts
    // the two entries but pidfd_open has no slot left.
    const struct rlimit few = {64, 64};
    ::setrlimit(RLIMIT_NOFILE, &few);
    while (::open("/dev/null", O_RDONLY) >= 0) {
    }
    net::ProcessLauncher launcher;
    launcher.fork_workers(2, [](int rank) {
      ::usleep(20000);
      return 3 + rank;
    });
    const std::vector<int> codes = launcher.wait_all(60000);
    ::_exit(codes == std::vector<int>{3, 4} ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
      << "wait_all slept to its deadline instead of re-scanning";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "wrong exit codes without pidfds";
}

TEST(Spawn, GuardedWorldEndsWithItsWorkers) {
  // A cancel hook starts the launcher-side watchdog. Stopping it at the end
  // of the world must not cost a poll period: a guarded world with an
  // empty body ends about as soon as an unguarded one.
  mpp::RunOptions guarded = spawned();
  guarded.spawn_control.should_abort = [] { return false; };
  guarded.spawn_control.deadline_ms = 60000;
  const mpp::RunOptions unguarded = spawned();
  const auto world_ms = [](const mpp::RunOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    mpp::run_world(1, options, [](mpp::Comm&) {});
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<double> with_guard, without_guard;
  for (int i = 0; i < 9; ++i) {  // interleaved, so host noise hits both
    with_guard.push_back(world_ms(guarded));
    without_guard.push_back(world_ms(unguarded));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + 4, v.end());
    return v[4];
  };
  EXPECT_LT(median(with_guard) - median(without_guard), 10.0)
      << "guarded median " << median(with_guard) << " ms, unguarded "
      << median(without_guard) << " ms";
}

/// The state letter of a live process ('Z' for a zombie), or 0 when the
/// pid is gone; ppid receives its parent.
char proc_state(pid_t pid, pid_t* ppid = nullptr) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(f, stat)) return 0;
  // pid (comm) state ppid ... — comm may contain spaces, parse past ')'.
  const std::size_t close = stat.rfind(')');
  char state = 0;
  pid_t parent = 0;
  if (close == std::string::npos ||
      std::sscanf(stat.c_str() + close + 1, " %c %d", &state, &parent) != 2)
    return 0;
  if (ppid) *ppid = parent;
  return state;
}

/// Live direct children of `parent` (via /proc/<pid>/stat field 4).
std::vector<pid_t> children_of(pid_t parent) {
  std::vector<pid_t> kids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    const pid_t pid = std::atoi(name.c_str());
    pid_t ppid = 0;
    const char state = proc_state(pid, &ppid);
    if (state != 0 && state != 'Z' && ppid == parent) kids.push_back(pid);
  }
  return kids;
}

TEST(Spawn, WorkersDieWithTheirLauncher) {
  // A SIGKILLed launcher (peachyd, ctest) cannot reap or kill its workers;
  // they must go down with it instead of sleeping on as orphans.
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    try {
      mpp::run_world(2, spawned(), [](mpp::Comm&) {
        std::this_thread::sleep_for(std::chrono::seconds(20));
      });
    } catch (...) {
    }
    ::_exit(0);
  }
  std::vector<pid_t> workers;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (workers.size() < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    workers = children_of(helper);
  }
  ASSERT_EQ(::kill(helper, SIGKILL), 0);
  ASSERT_EQ(::waitpid(helper, nullptr, 0), helper);
  ASSERT_EQ(workers.size(), 2u) << "the helper never spawned its workers";
  std::this_thread::sleep_for(std::chrono::seconds(2));
  for (const pid_t pid : workers) {
    const char state = proc_state(pid);
    EXPECT_TRUE(state == 0 || state == 'Z')
        << "worker " << pid << " outlived its launcher (state " << state
        << ")";
  }
}

TEST(Spawn, SigtermAtBirthEndsTheWorldPromptly) {
  // The watchdog SIGTERMs every worker on its first poll, right after the
  // spawns. Exec'd workers are still loading this binary then, long before
  // their SIGTERM handler exists. The launcher spawns with SIGTERM
  // blocked, so the signal waits for the worker's handler and lands in the
  // abort latch instead of killing a child that never registered (which
  // left the rendezvous blocked for its whole accept budget). The short
  // socket timeouts turn such a hang into a failed time bound rather than
  // a stuck test.
  mpp::RunOptions options = spawned(
      {"/proc/self/exe",
       "--gtest_filter=Spawn.SigtermAtBirthEndsTheWorldPromptly"});
  options.tcp.connect_timeout_ms = 3000;
  options.tcp.recv_timeout_ms = 3000;
  options.spawn_control.should_abort = [] { return true; };
  options.spawn_control.term_grace_ms = 3000;
  for (int round = 0; round < 20; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      mpp::run_world(4, options, [](mpp::Comm& comm) {
        // Cooperative cancel: stop together once any rank saw SIGTERM.
        while (!comm.allreduce_or(mpp::spawn_abort_requested())) {
        }
      });
    } catch (const Error& e) {
      ADD_FAILURE() << "round " << round << ": " << e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << "round " << round;
  }
}

TEST(Spawn, Sandpile1dByteIdenticalAcrossAllBackends) {
  const sandpile::Field initial =
      sandpile::sparse_random_pile(40, 40, 0.35, 2, 9, 777);

  sandpile::DistributedOptions opts;
  opts.ranks = 3;
  opts.halo_depth = 2;
  const sandpile::DistributedResult inproc =
      sandpile::stabilize_distributed(initial, opts);

  sandpile::DistributedOptions spawned = opts;
  spawned.run.transport = mpp::TransportKind::kTcp;
  spawned.run.spawn = true;
  const sandpile::DistributedResult procs =
      sandpile::stabilize_distributed(initial, spawned);

  ASSERT_TRUE(inproc.stable);
  ASSERT_TRUE(procs.stable);
  EXPECT_EQ(inproc.rounds, procs.rounds);
  EXPECT_EQ(inproc.comm.messages_sent, procs.comm.messages_sent);
  EXPECT_EQ(inproc.comm.bytes_sent, procs.comm.bytes_sent);
  EXPECT_TRUE(inproc.field.same_interior(procs.field));
}

TEST(Spawn, Sandpile2dByteIdenticalAcrossAllBackends) {
  const sandpile::Field initial =
      sandpile::sparse_random_pile(36, 44, 0.35, 2, 9, 4242);

  sandpile::DistributedOptions opts;
  opts.ranks = 4;
  opts.ranks_x = 2;
  opts.halo_depth = 2;
  const sandpile::DistributedResult inproc =
      sandpile::stabilize_distributed(initial, opts);

  sandpile::DistributedOptions spawned = opts;
  spawned.run.transport = mpp::TransportKind::kTcp;
  spawned.run.spawn = true;
  const sandpile::DistributedResult procs =
      sandpile::stabilize_distributed(initial, spawned);

  ASSERT_TRUE(inproc.stable);
  ASSERT_TRUE(procs.stable);
  EXPECT_EQ(inproc.rounds, procs.rounds);
  EXPECT_EQ(inproc.comm.messages_sent, procs.comm.messages_sent);
  EXPECT_EQ(inproc.comm.bytes_sent, procs.comm.bytes_sent);
  EXPECT_TRUE(inproc.field.same_interior(procs.field));
}

TEST(Spawn, SeededFaultsAreDeterministicAcrossProcessRuns) {
  // The same fault plan severs the same link at the same frame in every
  // process run, so supervised recovery replays identically.
  const sandpile::Field initial = sandpile::center_pile(16, 16, 800);

  sandpile::DistributedOptions opts;
  opts.ranks = 2;
  opts.halo_depth = 2;
  opts.checkpoint_every = 4;
  opts.run.transport = mpp::TransportKind::kTcp;
  opts.run.spawn = true;
  opts.run.resilience.max_restarts = 2;
  opts.run.tcp.fault.sever_after = 20;

  const sandpile::DistributedResult a =
      sandpile::stabilize_distributed(initial, opts);
  const sandpile::DistributedResult b =
      sandpile::stabilize_distributed(initial, opts);

  ASSERT_TRUE(a.stable);
  EXPECT_TRUE(a.field.same_interior(b.field));
  EXPECT_EQ(a.rounds, b.rounds);
  // A restart clears the plan, so each run severs exactly once.
  EXPECT_EQ(a.restarts, 1);
  EXPECT_EQ(b.restarts, 1);
}

// Exec mode: each worker is a fresh copy of this very test binary. The
// child runs main(), gtest filters it down to this one test, and the
// PEACHY_MPP_* environment routes the re-entered run_world call into the
// worker path (it never launches grandchildren).
TEST(Spawn, ExecModeRespawnsThisBinary) {
  const mpp::RunOptions options = spawned(
      {"/proc/self/exe", "--gtest_filter=Spawn.ExecModeRespawnsThisBinary"});
  const mpp::RunOutcome out =
      mpp::run_world(2, options, [](mpp::Comm& comm) {
        std::int64_t token = comm.rank() == 0 ? 7 : 0;
        if (comm.rank() == 0) {
          comm.send(1, 2, &token, 1);
        } else {
          comm.recv(0, 2, &token, 1);
          EXPECT_EQ(token, 7);
        }
        const std::int64_t hi = comm.allreduce_max(comm.rank());
        if (comm.rank() == 0) comm.set_result(&hi, sizeof(hi));
      });
  ASSERT_EQ(out.rank0_result.size(), sizeof(std::int64_t));
  std::int64_t hi = 0;
  std::memcpy(&hi, out.rank0_result.data(), sizeof(hi));
  EXPECT_EQ(hi, 1);
}

// One root-cause rule on every substrate: rank 2 throws while rank 0 is
// blocked on it, so rank 0 fails too (a `peer rank 2 died` cascade), and the
// world must still report rank 2's own error.
struct Substrate {
  const char* name;
  mpp::TransportKind transport;
  bool spawn;
};

void PrintTo(const Substrate& substrate, std::ostream* os) {
  *os << substrate.name;
}

class Mpp : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(
    , Mpp,
    ::testing::Values(Substrate{"inproc", mpp::TransportKind::kInproc, false},
                      Substrate{"tcp", mpp::TransportKind::kTcp, false},
                      Substrate{"spawned", mpp::TransportKind::kTcp, true}),
    [](const ::testing::TestParamInfo<Substrate>& info) {
      return std::string(info.param.name);
    });

TEST_P(Mpp, FailingRankIsNamedAsRootCauseOnEverySubstrate) {
  const mpp::RunOptions options = {.transport = GetParam().transport,
                                   .spawn = GetParam().spawn};
  try {
    mpp::run_world(3, options, [](mpp::Comm& comm) {
      if (comm.rank() == 2) throw Error("rank 2 lost its input");
      if (comm.rank() == 0) {
        std::int64_t x = 0;
        comm.recv(2, 1, &x, 1);  // released by rank 2's goodbye
      }
    });
    FAIL() << "rank 2's failure should propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 2 lost its input"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("peer rank"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace peachy

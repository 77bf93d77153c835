// ProcessLauncher: forks the worker processes of a spawned mpp world
// (mpp::run_world with RunOptions::spawn).
//
// Two spawning styles:
//  * fork_workers — plain fork(); the child shares the parent's code and
//    runs a callback directly. Cheapest path to real address-space-isolated
//    ranks on one machine.
//  * exec_workers — fork() + execv() of a caller-supplied command line
//    (typically the current binary re-invoked with a filter that routes
//    straight back to the same mpp::run_world call site). The worker
//    discovers its identity through PEACHY_MPP_* environment variables.
//
// wait_all() is deadline-bounded: stragglers are SIGKILLed and reported
// instead of hanging the launcher — a crashed worker must surface as an
// error, never as a stuck test. It blocks on one pidfd per child, so it
// returns as soon as the last worker exits; it reaps only its own pids
// (never waitpid(-1)), so several launchers can run side by side.
//
// Both spawn styles record their recipe, so respawn(rank) can fork a
// replacement for a single failed rank later — the building block of the
// supervised restart loop in mpp::run_world.
//
// Children start with SIGTERM blocked (through exec, too). A recipe that
// wants SIGTERM installs its handler and then unblocks it, as
// mpp's worker does. A SIGTERM sent in between stays pending until then.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace peachy::net {

/// Kernel-enforced resource fences applied to every child between fork and
/// the recipe/exec. Zero means "leave the inherited limit alone".
struct ChildLimits {
  std::uint64_t address_space_bytes = 0;  // RLIMIT_AS
  std::uint64_t cpu_seconds = 0;          // RLIMIT_CPU (SIGXCPU then SIGKILL)

  bool any() const { return address_space_bytes != 0 || cpu_seconds != 0; }
};

/// Coarse classification of a wait_all exit code, for callers that must
/// triage "how did this job die" without string-matching.
enum class ExitClass {
  kClean,     // exit(0)
  kNonzero,   // exit(n), n != 0
  kSignaled,  // killed by a signal (128+sig or the 255 deadline kill)
};

class ProcessLauncher {
 public:
  ~ProcessLauncher();

  /// Applies to children spawned by any later fork_workers / exec_workers /
  /// respawn call. Limits are set in the child, so a respawned rank gets
  /// the same fence as the original.
  void set_child_limits(const ChildLimits& limits) { limits_ = limits; }

  /// Forks `n` children; child i runs `child_fn(i)` and _exits with its
  /// return value (it never returns into the caller's stack).
  void fork_workers(int n, const std::function<int(int rank)>& child_fn);

  /// Forks `n` children that execv `argv` with `env_for_rank(rank)`
  /// appended to the environment. argv[0] must be an executable path.
  void exec_workers(
      int n, const std::vector<std::string>& argv,
      const std::function<std::vector<std::pair<std::string, std::string>>(
          int rank)>& env_for_rank);

  /// Forks a fresh worker for `rank` from the recipe captured by the last
  /// fork_workers/exec_workers call. A still-running previous incarnation
  /// of that rank is SIGKILLed and reaped first. Returns the new pid.
  pid_t respawn(int rank);

  /// Waits for every child; after `timeout_ms`, survivors are SIGKILLed.
  /// Returns one exit code per rank (128+signal for signal deaths, 255 for
  /// a child that had to be killed).
  std::vector<int> wait_all(int timeout_ms);

  /// SIGKILLs every child still running (error-path cleanup).
  void kill_all();

  /// Sends `sig` (typically SIGTERM) to every live child without reaping —
  /// the polite half of the SIGTERM -> grace -> SIGKILL escalation. The
  /// caller still owns the reap via wait_all/kill_all.
  void terminate_all(int sig);

  int spawned() const { return static_cast<int>(pids_.size()); }

  /// Largest resident-set peak (bytes) observed across every child reaped
  /// by this launcher — wait_all and respawn reap with wait4, so the value
  /// accumulates over restarts too. 0 until the first child is reaped.
  std::uint64_t peak_rss_bytes() const;

  /// Snapshot of children not yet reaped (for tests that target a specific
  /// worker with a signal). Entries are -1 once reaped.
  std::vector<pid_t> pids() const;

 private:
  pid_t spawn_one(int rank);
  // Marks `rank` reaped and closes its pidfd. Caller holds mu_.
  void forget(std::size_t rank);

  // Guards pids_: a supervisor watchdog thread may call terminate_all /
  // kill_all while the launcher thread reaps in wait_all.
  mutable std::mutex mu_;
  std::vector<pid_t> pids_;  // indexed by rank; -1 = reaped / never spawned
  std::vector<int> pidfds_;  // pidfd per pids_ entry; -1 = none
  std::uint64_t peak_rss_bytes_ = 0;  // max ru_maxrss over reaped children
  ChildLimits limits_;
  // Exactly one of these recipes is set after the first spawn call.
  std::function<int(int)> fork_recipe_;
  std::vector<std::string> exec_argv_;
  std::function<std::vector<std::pair<std::string, std::string>>(int)>
      exec_env_;
};

/// Coarse triage of a wait_all exit code (see ExitClass).
ExitClass classify_exit_code(int code);

/// Human-readable root cause for a wait_all exit code, e.g.
/// "killed by signal 9 (Killed)" or "exec failed (exit code 127)".
std::string describe_exit_code(int code);

}  // namespace peachy::net

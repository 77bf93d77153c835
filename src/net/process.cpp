#include "net/process.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"

namespace peachy::net {

namespace {

using Clock = std::chrono::steady_clock;

// wait_all's re-scan cadence while some child has no pidfd (pidfd_open
// failed, e.g. on EMFILE): poll cannot see that child exit.
constexpr int kBlindScanMs = 5;

// Child-side, between fork and recipe/exec: only async-signal-safe calls.
void apply_child_limits(const ChildLimits& limits) {
  if (limits.address_space_bytes != 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.address_space_bytes);
    rl.rlim_max = static_cast<rlim_t>(limits.address_space_bytes);
    ::setrlimit(RLIMIT_AS, &rl);
  }
  if (limits.cpu_seconds != 0) {
    struct rlimit rl;
    rl.rlim_cur = static_cast<rlim_t>(limits.cpu_seconds);
    // Leave one second of headroom before the kernel's hard SIGKILL so the
    // SIGXCPU death is what surfaces in the exit status.
    rl.rlim_max = static_cast<rlim_t>(limits.cpu_seconds + 1);
    ::setrlimit(RLIMIT_CPU, &rl);
  }
}

}  // namespace

ProcessLauncher::~ProcessLauncher() {
  // Never leak children: if the launcher unwinds (an exception between
  // spawn and wait), take the workers down with it.
  std::lock_guard<std::mutex> lock(mu_);
  for (pid_t pid : pids_)
    if (pid > 0) ::kill(pid, SIGKILL);
  for (std::size_t i = 0; i < pids_.size(); ++i)
    if (pids_[i] > 0) {
      ::waitpid(pids_[i], nullptr, 0);
      forget(i);
    }
}

void ProcessLauncher::forget(std::size_t rank) {
  pids_[rank] = -1;
  if (pidfds_[rank] >= 0) ::close(pidfds_[rank]);
  pidfds_[rank] = -1;
}

pid_t ProcessLauncher::spawn_one(int rank) {
  // The child is born with SIGTERM blocked: a SIGTERM sent the instant the
  // pid exists stays pending until the worker has installed its handler
  // and unblocks it, instead of killing a child that has not yet joined
  // the rendezvous. The parent's own mask is restored right away.
  sigset_t term, parent_mask;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &term, &parent_mask);
  const pid_t launcher = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) ::pthread_sigmask(SIG_SETMASK, &parent_mask, nullptr);
  PEACHY_REQUIRE(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    // A worker never outlives its launcher: SIGKILL it when the launcher
    // dies (a SIGKILLed peachyd or ctest included), and exit if that
    // already happened before the request was in place. The signal follows
    // the *forking thread*, not the process; run_world's calling thread
    // forks and also reaps, so it outlives its workers. The setting
    // survives exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != launcher) ::_exit(1);
    if (limits_.any()) apply_child_limits(limits_);
    if (fork_recipe_) {
      int code = 1;
      try {
        code = fork_recipe_(rank);
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    for (const auto& [key, value] : exec_env_(rank))
      ::setenv(key.c_str(), value.c_str(), 1);
    std::vector<char*> cargv;
    cargv.reserve(exec_argv_.size() + 1);
    for (const auto& a : exec_argv_)
      cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed
  }
  // Readable once the child exits, so wait_all can block on it. Only this
  // launcher reaps the pid, so it cannot be recycled before this call.
  pidfds_[static_cast<std::size_t>(rank)] =
      static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  return pid;
}

void ProcessLauncher::fork_workers(int n,
                                   const std::function<int(int)>& child_fn) {
  fork_recipe_ = child_fn;
  exec_argv_.clear();
  exec_env_ = nullptr;
  for (int r = 0; r < n; ++r) respawn(r);
}

void ProcessLauncher::exec_workers(
    int n, const std::vector<std::string>& argv,
    const std::function<std::vector<std::pair<std::string, std::string>>(int)>&
        env_for_rank) {
  PEACHY_REQUIRE(!argv.empty(), "exec_workers needs a command line");
  fork_recipe_ = nullptr;
  exec_argv_ = argv;
  exec_env_ = env_for_rank;
  for (int r = 0; r < n; ++r) respawn(r);
}

namespace {

// ru_maxrss is KiB on Linux; fold one reaped child's peak into `acc`.
void fold_peak_rss(const struct rusage& usage, std::uint64_t& acc) {
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
  if (bytes > acc) acc = bytes;
}

}  // namespace

pid_t ProcessLauncher::respawn(int rank) {
  PEACHY_REQUIRE(rank >= 0, "respawn of negative rank " << rank);
  PEACHY_REQUIRE(fork_recipe_ || !exec_argv_.empty(),
                 "respawn(" << rank << ") before any spawn call set a recipe");
  std::lock_guard<std::mutex> lock(mu_);
  const auto i = static_cast<std::size_t>(rank);
  if (i >= pids_.size()) {
    pids_.resize(i + 1, -1);
    pidfds_.resize(i + 1, -1);
  }
  pid_t& slot = pids_[i];
  if (slot > 0) {
    // The old incarnation may be live, a zombie, or already reaped by
    // wait_all; kill is advisory, the reap is what frees the slot.
    ::kill(slot, SIGKILL);
    struct rusage usage {};
    if (::wait4(slot, nullptr, 0, &usage) == slot)
      fold_peak_rss(usage, peak_rss_bytes_);
    forget(i);
  }
  slot = spawn_one(rank);
  return slot;
}

std::vector<int> ProcessLauncher::wait_all(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<int> codes(pids_.size(), -1);
  bool killed = false;
  for (;;) {
    // Reap whoever has exited; block on the pidfds of the rest.
    std::vector<pollfd> live;
    bool blind = false;
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] <= 0) continue;
      int status = 0;
      struct rusage usage {};
      const pid_t rc = ::wait4(pids_[i], &status, WNOHANG, &usage);
      if (rc == 0) {
        live.push_back({pidfds_[i], POLLIN, 0});  // poll skips a -1 fd
        blind |= pidfds_[i] < 0;
        continue;
      }
      if (rc == pids_[i]) fold_peak_rss(usage, peak_rss_bytes_);
      if (WIFEXITED(status))
        codes[i] = WEXITSTATUS(status);
      else if (WIFSIGNALED(status))
        codes[i] = killed ? 255 : 128 + WTERMSIG(status);
      else
        codes[i] = 255;
      forget(i);
    }
    if (live.empty()) break;
    if (Clock::now() >= deadline && !killed) {
      for (pid_t pid : pids_)
        if (pid > 0) ::kill(pid, SIGKILL);
      killed = true;
    }
    // Until the deadline, wake when a child exits or the deadline passes;
    // after the kill, wake when a killed child is gone.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    int wait_ms = killed ? -1 : std::max<int>(0, left.count());
    if (blind)
      wait_ms = wait_ms < 0 ? kBlindScanMs : std::min(wait_ms, kBlindScanMs);
    lock.unlock();
    ::poll(live.data(), live.size(), wait_ms);
    lock.lock();
  }
  pids_.clear();
  pidfds_.clear();
  return codes;
}

void ProcessLauncher::kill_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (pid_t pid : pids_)
    if (pid > 0) ::kill(pid, SIGKILL);
}

void ProcessLauncher::terminate_all(int sig) {
  std::lock_guard<std::mutex> lock(mu_);
  for (pid_t pid : pids_)
    if (pid > 0) ::kill(pid, sig);
}

std::uint64_t ProcessLauncher::peak_rss_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_rss_bytes_;
}

std::vector<pid_t> ProcessLauncher::pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pids_;
}

ExitClass classify_exit_code(int code) {
  if (code == 0) return ExitClass::kClean;
  if (code == 255 || code > 128) return ExitClass::kSignaled;
  return ExitClass::kNonzero;
}

std::string describe_exit_code(int code) {
  if (code == 0) return "exited cleanly";
  if (code == 127) return "exec failed (exit code 127)";
  if (code == 255) return "SIGKILLed at the wait_all deadline";
  if (code > 128) {
    const int sig = code - 128;
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name ? " (" + std::string(name) + ")" : "");
  }
  return "exited with code " + std::to_string(code);
}

}  // namespace peachy::net

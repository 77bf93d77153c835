// perfbench — the job-path benchmark of peachyd (see run.py for the
// command line the benchmark is run with).
//
// One run: generate the seeded job plan, compute the oracle references,
// fill a state directory with a fixed job history, start the real peachyd
// binary on it several times (set-up time), run one untimed warm-up job per
// kind, then drive the plan through svc::Client from closed-loop client
// threads and check every result. With --trace 1 the plan is a third as
// long, a traced copy of the stream follows on a fresh daemon, and then the
// per-layer measurements run (layers.hpp).
//
// The last stdout line is the result JSON (stats.hpp). Exit code 1 when a
// result was wrong or a job did not finish DONE, 2 on bad arguments.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/args.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "layers.hpp"
#include "svc/client.hpp"

namespace perfbench {
namespace {

using namespace peachy;
using Clock = std::chrono::steady_clock;

/// The await loop's status poll interval: a benchmark constant, small next
/// to the smallest job (a few ms), so it adds at most 1 ms to a job.
constexpr auto kPollInterval = std::chrono::microseconds(1000);
/// Daemon starts per run; setup_s is their median.
constexpr int kSetupStarts = 16;
constexpr auto kJobDeadline = std::chrono::seconds(120);
/// Jobs per tail window (stats.hpp windowed_tail): each window's p90 has
/// 10 samples beyond it.
constexpr std::size_t kTailWindow = 100;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  PEACHY_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  PEACHY_REQUIRE(ok, "cannot find a free loopback port");
  return ntohs(addr.sin_port);
}

/// User+sys CPU of `pid` and of every child it has reaped, in ms.
double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  PEACHY_REQUIRE(close != std::string::npos, "cannot read /proc stat of " << pid);
  std::istringstream fields(stat.substr(close + 2));
  std::vector<std::string> f;
  for (std::string s; fields >> s;) f.push_back(s);
  PEACHY_REQUIRE(f.size() > 14, "short /proc stat of " << pid);
  // Fields 14..17 of proc(5): utime, stime, cutime, cstime (f[0] is field 3).
  double ticks = 0;
  for (int i = 11; i <= 14; ++i) ticks += std::stod(f[static_cast<std::size_t>(i)]);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// CPU time the hypervisor gave to other guests (/proc/stat "steal"), in
/// seconds summed over all CPUs: the host noise a run cannot control.
double steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  in >> cpu;
  for (double& t : ticks) in >> t;
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid`, in MiB.
double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw Error("no VmHWM for pid " + std::to_string(pid));
}

/// The real peachyd binary, started on a state directory. Dies with the
/// benchmark (PDEATHSIG), and is killed and reaped if not shut down.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& state_dir,
                const std::string& log_path)
      : port_(free_port()) {
    const std::vector<std::string> args = {
        binary,
        "--state", state_dir,
        "--port", std::to_string(port_),
        "--pool-ranks", std::to_string(pool_ranks())};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    PEACHY_REQUIRE(log >= 0, "cannot open " << log_path);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log);
    PEACHY_REQUIRE(pid_ > 0, "fork failed: " << std::strerror(errno));
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  pid_t pid() const { return pid_; }
  svc::Client client() const { return svc::Client("127.0.0.1", port_); }

  /// Returns once the daemon has answered a stats() request; throws if it
  /// exits first. Readiness is probed with raw connects: the client's own
  /// connect retries refusals in 5 ms steps, which would quantize setup_s.
  void wait_ready() const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    const auto until = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      PEACHY_CHECK(fd >= 0);
      const bool up =
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      ::close(fd);
      if (up) break;
      int status = 0;
      PEACHY_REQUIRE(::waitpid(pid_, &status, WNOHANG) == 0,
                     "peachyd exited during start-up (status " << status << ")");
      PEACHY_REQUIRE(Clock::now() < until, "peachyd did not listen in 60 s");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    client().stats();
  }

  /// Asks for shutdown and reaps the daemon; throws unless it exits 0.
  void shutdown() {
    client().shutdown();
    const auto until = Clock::now() + std::chrono::seconds(60);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      PEACHY_REQUIRE(Clock::now() < until, "peachyd did not exit in 60 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    PEACHY_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "peachyd exited with status " << status);
  }

 private:
  int port_ = 0;
  pid_t pid_ = -1;
};

/// One closed-loop cycle: submit (resubmitting on admission refusal), poll
/// status to a terminal state, fetch and check the result.
JobRun run_job_cycle(const svc::Client& client, const svc::JobSpec& spec,
                     const References& refs, TraceLog* trace, int tid,
                     bool corrupt) {
  JobRun r;
  r.kind = spec.kind;
  const std::int64_t root = trace ? trace->new_span_id() : 0;
  std::uint64_t id = 0;
  std::vector<std::tuple<const char*, Clock::time_point, Clock::time_point>>
      spans;
  const auto start = Clock::now();
  for (;;) {
    ++r.attempts;
    const auto t0 = Clock::now();
    const svc::SubmitResult sub = client.submit(spec);
    const auto t1 = Clock::now();
    r.submit_ms += ms_between(t0, t1);
    spans.emplace_back("svc.submit", t0, t1);
    if (sub.accepted) {
      id = sub.id;
      break;
    }
    ++r.refusals;
    std::this_thread::sleep_for(kPollInterval);
  }
  svc::JobStatus status;
  for (;;) {
    const auto t0 = Clock::now();
    status = client.status(id);
    const auto t1 = Clock::now();
    r.status_ms.push_back(ms_between(t0, t1));
    spans.emplace_back("svc.status", t0, t1);
    if (svc::is_terminal(status.state)) break;
    PEACHY_REQUIRE(t1 - start < kJobDeadline,
                   "job " << id << " not finished after "
                          << kJobDeadline.count() << " s");
    std::this_thread::sleep_for(kPollInterval);
  }
  const auto seen = Clock::now();
  r.latency_ms = ms_between(start, seen);
  r.state = status.state;
  r.peak_rss_bytes = status.peak_rss_bytes;
  if (status.state == svc::JobState::kDone) {
    const auto t0 = Clock::now();
    std::vector<std::byte> blob = client.result(id);
    const auto t1 = Clock::now();
    if (corrupt && !blob.empty()) blob.back() ^= std::byte{1};
    r.wrong = check_result(refs, spec, blob);
    spans.emplace_back("svc.result", t0, t1);
    spans.emplace_back("bench.oracle", t1, Clock::now());
  }
  if (trace != nullptr) {
    const auto job = static_cast<std::int64_t>(id);
    trace->span("job", ns_of(start), ns_of(Clock::now()), tid,
                {{"job", job}, {"span_id", root}, {"kind", static_cast<int>(spec.kind)}});
    for (const auto& [name, t0, t1] : spans)
      trace->span(name, ns_of(t0), ns_of(t1), tid,
                  {{"job", job},
                   {"span_id", trace->new_span_id()},
                   {"parent_span_id", root}});
  }
  return r;
}

StreamRun run_stream(const DaemonProcess& daemon,
                     const std::vector<svc::JobSpec>& plan, int clients,
                     const References& refs, TraceLog* trace, bool corrupt) {
  StreamRun run;
  run.jobs.resize(plan.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const double cpu0 = process_cpu_ms(daemon.pid());
  const double steal0 = steal_s();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const svc::Client client = daemon.client();
        for (std::size_t i; (i = next.fetch_add(1)) < plan.size();)
          run.jobs[i] = run_job_cycle(client, plan[i], refs, trace, c + 1,
                                      corrupt && i == 0);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(plan.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  run.daemon_cpu_ms = process_cpu_ms(daemon.pid()) - cpu0;
  run.steal_frac = (steal_s() - steal0) / (run.wall_s * ::sysconf(_SC_NPROCESSORS_ONLN));
  if (error) std::rethrow_exception(error);
  return run;
}

struct Tally {
  long long attempted = 0, failed = 0, done = 0, wrong = 0, unfinished = 0;
  std::string first_problem;
};

Tally tally(const StreamRun& run) {
  Tally t;
  for (const JobRun& j : run.jobs) {
    t.attempted += j.attempts;
    t.failed += j.refusals;
    if (j.correct()) {
      ++t.done;
      continue;
    }
    ++t.failed;
    const bool done = j.state == svc::JobState::kDone;
    ++(done ? t.wrong : t.unfinished);
    if (t.first_problem.empty())
      t.first_problem = done ? j.wrong
                             : std::string("job ended ") + svc::to_string(j.state);
  }
  return t;
}

void add_end_to_end(const StreamRun& run, double setup_s, double daemon_rss_mb,
                    ResultLine& out) {
  const Tally t = tally(run);
  out.add("jobs_per_s", static_cast<double>(t.done) / run.wall_s, "jobs/s");
  const std::vector<double> all = run.latencies();
  out.add("job_ms_p50", median(all), "ms");
  const Tail tail = windowed_tail(all, kTailWindow);
  out.add("job_ms_tail", tail.value, "ms");
  std::cout << "job_ms_tail is the median over " << tail.windows
            << " windows of the p" << tail.percent << " of n=" << tail.window
            << " jobs (" << samples_beyond(tail.window, tail.percent)
            << " samples beyond); p" << tail_percent(all.size())
            << " of all n=" << all.size() << " is "
            << percentile(all, tail_percent(all.size())) << " ms\n";
  for (const svc::JobKind kind : kKinds)
    out.add(std::string(svc::to_string(kind)) + "_ms_p50",
            median(run.latencies(kind)), "ms");
  out.add("setup_s", setup_s, "s");
  out.add("cpu_ms_per_job",
          run.daemon_cpu_ms / static_cast<double>(std::max(t.done, 1LL)), "ms");
  out.add("daemon_rss_mb", daemon_rss_mb, "MiB");
}

void print_summary(const char* label, const StreamRun& run) {
  const Tally t = tally(run);
  std::cout << label << ": " << run.jobs.size() << " jobs in " << run.wall_s
            << " s, " << t.done << " correct, " << t.wrong << " wrong, "
            << t.unfinished << " not DONE, " << run.refusals()
            << " refusals; p50 " << median(run.latencies()) << " ms";
  for (const svc::JobKind kind : kKinds)
    std::cout << ", " << svc::to_string(kind) << " "
              << median(run.latencies(kind)) << " ms";
  std::cout << "; host steal " << 100 * run.steal_frac << "% of CPU time\n";
}

int run(const Args& args) {
  const Workload& w = find_workload(args.get("workload", ""));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10);
  const bool traced = args.get_int("trace", 0) != 0;
  const std::string bin_dir = args.get("bin-dir", ".");
  const std::string work = args.get("work-dir", "perfbench-work");
  const std::string trace_path = args.get("trace-file", work + "/trace.json");
  const bool corrupt = args.has("inject-wrong-result");
  PEACHY_REQUIRE(seconds > 0, "--seconds must be positive");

  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  const int clients = std::min(w.clients, pool_ranks());
  // The traced run streams twice and then calls every layer, so each of its
  // streams runs a third of the plan to stay inside the time a run may take
  // even on a host that runs it at half speed.
  const int jobs = std::max(
      3, static_cast<int>(seconds * w.jobs_per_second / (traced ? 3 : 1) + 0.5));
  const std::vector<svc::JobSpec> plan = make_plan(w, seed, jobs);
  std::cout << "perfbench " << w.name << ": seed " << seed << ", "
            << plan.size() << " jobs, " << clients << " client(s), pool "
            << pool_ranks() << " ranks, " << plan.front().ranks
            << " ranks per job, isolation " << svc::to_string(w.isolation)
            << "\n";

  const auto ref_start = Clock::now();
  const References refs = build_references(
      job_spec(w, svc::JobKind::kSandpile), job_spec(w, svc::JobKind::kDmr),
      dmr_seeds(seed), job_spec(w, svc::JobKind::kWfsim));
  std::cout << "oracle references built in "
            << ms_between(ref_start, Clock::now()) << " ms\n";

  // Set-up samples start a daemon on a pristine copy of the history (a
  // start without submissions writes nothing), half before the stream and
  // half after it, so the median spans the whole run.
  const std::string binary = bin_dir + "/peachyd";
  const std::string log = work + "/peachyd.log";
  const std::string history = work + "/history";
  prefill_history(history);
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupStarts / 2; ++i) {
      const auto t0 = Clock::now();
      DaemonProcess d(binary, history, log);
      d.wait_ready();
      setup.push_back(ms_between(t0, Clock::now()) / 1000.0);
      d.shutdown();
    }
  };
  // Each stream gets its own daemon on a fresh copy of the history: the
  // daemon keeps every job it ran in memory, so a second stream on the same
  // daemon would meet a bigger process (slower forks) than the first.
  double daemon_rss = 0;
  const auto serve = [&](TraceLog* trace, bool corrupt_first) {
    const std::string state = work + (trace ? "/state-traced" : "/state");
    prefill_history(state);
    DaemonProcess daemon(binary, state, log);
    daemon.wait_ready();
    // Warm-up: one job per kind, untimed but checked.
    const svc::Client client = daemon.client();
    for (const svc::JobKind kind : kKinds) {
      svc::JobSpec spec = job_spec(w, kind);
      spec.tenant = "tenant-0";
      spec.dmr.seed = dmr_seeds(seed).front();
      const JobRun r = run_job_cycle(client, spec, refs, nullptr, 0, false);
      PEACHY_REQUIRE(r.correct(), "warm-up " << svc::to_string(kind)
                                             << " job failed: " << r.wrong);
    }
    StreamRun run = run_stream(daemon, plan, clients, refs, trace, corrupt_first);
    if (trace == nullptr) daemon_rss = peak_rss_mb(daemon.pid());
    daemon.shutdown();
    return run;
  };

  sample_setup();
  const StreamRun measured = serve(nullptr, corrupt);
  print_summary("stream", measured);
  sample_setup();
  TraceLog trace;
  StreamRun traced_run;
  if (traced) {
    traced_run = serve(&trace, false);
    print_summary("traced stream", traced_run);
  }

  ResultLine out;
  const Tally t = tally(measured);
  if (traced) {
    measure_layers({w, refs, measured, traced_run, work + "/layers", trace}, out);
    out.add("failed_frac",
            static_cast<double>(t.failed) / static_cast<double>(t.attempted),
            "ratio");
    std::uint64_t worker_rss = 0;
    for (const JobRun& j : measured.jobs)
      worker_rss = std::max(worker_rss, j.peak_rss_bytes);
    out.add("worker_rss_mb", static_cast<double>(worker_rss) / (1 << 20), "MiB");
    trace.write(trace_path);
    std::cout << "trace written to " << trace_path << "\n";
  } else {
    std::cout << "setup_s over " << setup.size() << " starts: min "
              << percentile(setup, 1) << ", median " << median(setup)
              << ", max " << percentile(setup, 100) << "\n";
    add_end_to_end(measured, median(setup), daemon_rss, out);
  }
  const Tally tt = tally(traced_run);
  const bool correct = t.wrong + t.unfinished + tt.wrong + tt.unfinished == 0;
  if (!correct)
    std::cout << "WRONG: "
              << (t.first_problem.empty() ? tt.first_problem : t.first_problem)
              << "\n";
  std::cout << out.json(correct, t.attempted, t.failed) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const peachy::Args args(argc, argv, {"inject-wrong-result"});
    const auto unknown = args.unknown_options(
        {"workload", "seed", "seconds", "trace", "bin-dir", "work-dir",
         "trace-file", "inject-wrong-result"});
    if (!unknown.empty()) {
      std::cerr << "perfbench: unknown option --" << unknown.front() << "\n";
      return 2;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}

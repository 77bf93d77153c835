// peachyd — run the always-on multi-tenant job service (README cookbook,
// DESIGN.md "Job service").
//
//   ./peachyd --state out/peachyd --port 7411 --metrics-port 9464
//             --pool-ranks 8 --weights alice=3,bob=1
//
// The daemon listens for peachyctl submissions, persists every accepted
// job under --state (queued jobs and running-job checkpoints survive a
// kill -9), executes on a shared rank pool with weighted fair-share
// dispatch, and serves Prometheus text on the metrics port. It runs until
// `peachyctl shutdown` or SIGINT/SIGTERM.
//
// With --default-isolation process every job runs in forked worker
// processes: a crashing job becomes a FAILED record with a flight dump
// instead of a daemon outage. --rlimit-as-mb/--rlimit-cpu-s fence each
// worker via setrlimit; --job-deadline-ms caps wall-clock per job
// (SIGTERM, then SIGKILL after --term-grace-ms).
#include <signal.h>

#include <iostream>
#include <set>
#include <string>

#include "core/args.hpp"
#include "core/error.hpp"
#include "svc/daemon.hpp"

namespace {

peachy::svc::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  // stop() is not async-signal-safe in general, but the daemon's stop path
  // only touches its own synchronization; good enough for a demo driver.
  if (g_daemon != nullptr) g_daemon->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using peachy::Args;
  const Args args(argc, argv);
  const auto unknown = args.unknown_options(
      {"state", "port", "metrics-port", "pool-ranks", "max-queued",
       "max-queued-per-tenant", "weights", "max-restarts",
       "default-isolation", "rlimit-as-mb", "rlimit-cpu-s",
       "job-deadline-ms", "term-grace-ms"});
  if (!unknown.empty()) {
    std::cerr << "unknown option --" << unknown.front() << "\n"
              << "usage: peachyd --state DIR [--port N] [--metrics-port N]\n"
              << "               [--pool-ranks N] [--max-queued N]\n"
              << "               [--max-queued-per-tenant N]\n"
              << "               [--weights a=3,b=1] [--max-restarts N]\n"
              << "               [--default-isolation threads|process]\n"
              << "               [--rlimit-as-mb N] [--rlimit-cpu-s N]\n"
              << "               [--job-deadline-ms N] [--term-grace-ms N]\n";
    return 2;
  }

  peachy::svc::DaemonOptions options;
  options.state_dir = args.get("state", "out/peachyd");
  options.port = args.get_int("port", 7411);
  options.metrics_port = args.get_int("metrics-port", -1);
  options.pool_ranks = args.get_int("pool-ranks", 8);
  options.max_queued = args.get_int("max-queued", 64);
  options.max_queued_per_tenant = args.get_int("max-queued-per-tenant", 32);
  options.tenant_weights = args.get("weights", "");
  options.max_restarts = args.get_int("max-restarts", 2);
  options.default_isolation =
      peachy::svc::isolation_from_string(args.get("default-isolation", "threads"));
  options.rlimit_as_bytes =
      static_cast<std::uint64_t>(args.get_int("rlimit-as-mb", 0)) << 20;
  options.rlimit_cpu_seconds =
      static_cast<std::uint64_t>(args.get_int("rlimit-cpu-s", 0));
  options.job_deadline_ms =
      static_cast<std::uint32_t>(args.get_int("job-deadline-ms", 0));
  options.term_grace_ms = args.get_int("term-grace-ms", 2000);

  try {
    peachy::svc::Daemon daemon(options);
    g_daemon = &daemon;
    ::signal(SIGINT, handle_signal);
    ::signal(SIGTERM, handle_signal);
    std::cout << "peachyd listening on " << options.host << ":"
              << daemon.port() << "  (state: " << options.state_dir
              << ", pool: " << options.pool_ranks << " ranks)\n";
    if (daemon.metrics_port() > 0)
      std::cout << "metrics: http://127.0.0.1:" << daemon.metrics_port()
                << "/metrics\n";
    if (daemon.recovered_queued() + daemon.recovered_running() > 0)
      std::cout << "recovered " << daemon.recovered_queued()
                << " queued and " << daemon.recovered_running()
                << " interrupted job(s) from " << options.state_dir << "\n";
    daemon.wait_for_shutdown();
    g_daemon = nullptr;
    std::cout << "peachyd: shutdown requested, draining\n";
  } catch (const peachy::Error& e) {
    std::cerr << "peachyd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

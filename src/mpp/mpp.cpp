#include "mpp/mpp.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>

#include "core/timer.hpp"
#include "mpp/checkpoint.hpp"
#include "mpp/pool.hpp"
#include "mpp/telemetry.hpp"
#include "net/inproc.hpp"
#include "net/metrics_server.hpp"
#include "net/process.hpp"
#include "net/rendezvous.hpp"
#include "obs/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace peachy::mpp {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter& obs_messages() {
  static obs::Counter& c = obs::Registry::global().counter("mpp.messages");
  return c;
}
obs::Counter& obs_bytes() {
  static obs::Counter& c = obs::Registry::global().counter("mpp.bytes");
  return c;
}
obs::Histogram& obs_msg_bytes() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("mpp.message_bytes");
  return h;
}
obs::Counter& obs_checkpoints() {
  static obs::Counter& c = obs::Registry::global().counter("mpp.checkpoints");
  return c;
}
obs::Counter& obs_checkpoint_bytes() {
  static obs::Counter& c =
      obs::Registry::global().counter("mpp.checkpoint_bytes");
  return c;
}
obs::Histogram& obs_checkpoint_write_ns() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("mpp.checkpoint_write_ns");
  return h;
}
obs::Histogram& obs_reap_ns() {
  static obs::Histogram& h = obs::Registry::global().histogram("mpp.reap_ns");
  return h;
}
obs::Counter& obs_restores() {
  static obs::Counter& c = obs::Registry::global().counter("mpp.restores");
  return c;
}
obs::Counter& obs_restarts() {
  static obs::Counter& c = obs::Registry::global().counter("mpp.restarts");
  return c;
}

// Process-global worker identity and the SIGTERM latch. sig_atomic_t +
// a plain handler keeps the signal path async-signal-safe; the launcher
// process never sets either, so in_spawned_worker() doubles as "is the
// launcher-side hook usable here".
std::atomic<bool> g_in_spawned_worker{false};
volatile sig_atomic_t g_spawn_abort = 0;

void on_worker_sigterm(int) { g_spawn_abort = 1; }

}  // namespace

bool in_spawned_worker() { return g_in_spawned_worker.load(); }

bool spawn_abort_requested() { return g_spawn_abort != 0; }

const char* to_string(TransportKind kind) {
  return kind == TransportKind::kTcp ? "tcp" : "inproc";
}

TransportKind transport_from_string(const std::string& name) {
  if (name == "inproc") return TransportKind::kInproc;
  if (name == "tcp") return TransportKind::kTcp;
  throw Error("unknown transport '" + name + "' (expected inproc or tcp)");
}

void Comm::send_bytes(int dest, int tag, const void* data, std::size_t bytes) {
  PEACHY_REQUIRE(dest >= 0 && dest < size(),
                 "rank " << rank() << ": send to bad rank " << dest
                         << " (world size " << size() << ", tag " << tag
                         << ")");
  if (!obs::enabled()) {
    transport_->send(dest, tag, data, bytes);
    ++stats_.messages_sent;
    stats_.bytes_sent += bytes;
    return;
  }
  // Propagation rule (DESIGN.md "Distributed telemetry"): every traced send
  // mints a span whose parent is the thread's current context (usually the
  // last adopted recv) and travels as the context on the wire, so the
  // receiving rank's recv span becomes its child.
  namespace cluster = obs::cluster;
  const std::uint64_t trace = cluster::trace_id();
  const std::uint64_t span = cluster::next_span_id();
  const std::uint64_t parent = cluster::current().span_id;
  {
    cluster::ScopedContext ctx({trace, span});
    transport_->send(dest, tag, data, bytes);
  }
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  obs_messages().add(1);
  obs_bytes().add(bytes);
  obs_msg_bytes().observe(static_cast<std::int64_t>(bytes));
  obs::Tracer::global().instant(
      "mpp.send", "mpp",
      {{"src", rank()},
       {"dst", dest},
       {"tag", tag},
       {"bytes", static_cast<std::int64_t>(bytes)},
       {"trace_id", static_cast<std::int64_t>(trace)},
       {"span_id", static_cast<std::int64_t>(span)},
       {"parent_span_id", static_cast<std::int64_t>(parent)}});
}

void Comm::recv_bytes(int src, int tag, void* data, std::size_t bytes) {
  PEACHY_REQUIRE(src >= 0 && src < size(),
                 "rank " << rank() << ": recv from bad rank " << src
                         << " (world size " << size() << ", tag " << tag
                         << ")");
  net::MsgInfo info;
  std::vector<std::byte> payload = transport_->recv(src, tag, &info);
  if (obs::enabled()) {
    namespace cluster = obs::cluster;
    std::vector<std::pair<std::string, std::int64_t>> args = {
        {"src", src},
        {"dst", rank()},
        {"tag", tag},
        {"bytes", static_cast<std::int64_t>(payload.size())}};
    if (info.has_ctx) {
      // Adopt the sender's context: this recv span is a child of the send
      // span, and it stays current on this thread so follow-up sends chain
      // off it — the cross-rank causal tree the merged trace renders.
      const std::uint64_t span = cluster::next_span_id();
      args.emplace_back("trace_id", static_cast<std::int64_t>(info.trace_id));
      args.emplace_back("span_id", static_cast<std::int64_t>(span));
      args.emplace_back("parent_span_id",
                        static_cast<std::int64_t>(info.span_id));
      cluster::set_current({info.trace_id, span});
    }
    obs::Tracer::global().instant("mpp.recv", "mpp", std::move(args));
  }
  PEACHY_REQUIRE(payload.size() == bytes,
                 "rank " << rank() << ": message size mismatch from rank "
                         << src << " tag " << tag << ": expected " << bytes
                         << " bytes, got " << payload.size());
  if (bytes) std::memcpy(data, payload.data(), bytes);
}

// Collectives are plain messages through rank 0 on reserved tags, so they
// behave identically over mailboxes, sockets, and processes. A size-1 world
// sends nothing (single-rank runs must report zero communication).

void Comm::barrier() {
  if (size() == 1) return;
  std::uint8_t token = 0;
  if (rank_() == 0) {
    for (int r = 1; r < size(); ++r) recv(r, detail_tag_barrier(), &token, 1);
    for (int r = 1; r < size(); ++r) send(r, detail_tag_barrier(), &token, 1);
  } else {
    send(0, detail_tag_barrier(), &token, 1);
    recv(0, detail_tag_barrier(), &token, 1);
  }
}

std::int64_t Comm::allreduce(std::int64_t value,
                             std::int64_t (*op)(std::int64_t, std::int64_t)) {
  if (size() == 1) return value;
  if (rank_() == 0) {
    std::int64_t acc = value;
    for (int r = 1; r < size(); ++r) {
      std::int64_t part = 0;
      recv(r, detail_tag_reduce(), &part, 1);
      acc = op(acc, part);
    }
    for (int r = 1; r < size(); ++r) send(r, detail_tag_reduce(), &acc, 1);
    return acc;
  }
  send(0, detail_tag_reduce(), &value, 1);
  std::int64_t result = 0;
  recv(0, detail_tag_reduce(), &result, 1);
  return result;
}

std::int64_t Comm::allreduce_sum(std::int64_t value) {
  return allreduce(value,
                   [](std::int64_t a, std::int64_t b) { return a + b; });
}

std::int64_t Comm::allreduce_max(std::int64_t value) {
  return allreduce(
      value, [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
}

bool Comm::allreduce_or(bool value) {
  return allreduce_max(value ? 1 : 0) != 0;
}

int Comm::checkpoint(const void* data, std::size_t bytes) {
  PEACHY_REQUIRE(checkpointing(),
                 "rank " << rank() << ": Comm::checkpoint called without a "
                            "checkpoint directory (set Resilience::"
                            "checkpoint_dir or run supervised)");
  obs::Span span("mpp.checkpoint", "mpp");
  span.arg("rank", rank());
  span.arg("bytes", static_cast<std::int64_t>(bytes));
  const int epoch = epoch_ + 1;
  obs::Span write("mpp.checkpoint_write", "mpp");
  write.arg("epoch", epoch);
  const std::int64_t t0 = obs::enabled() ? now_ns() : 0;
  commit_rank_checkpoint(ckpt_dir_, size(), rank(), epoch,
                         std::span(static_cast<const std::byte*>(data), bytes),
                         /*keep_previous=*/epoch_ > 0);
  if (obs::enabled()) {
    obs_checkpoint_write_ns().observe(now_ns() - t0);
    obs_checkpoint_bytes().add(bytes);
    if (rank_() == 0) obs_checkpoints().add(1);
  }
  return epoch_ = epoch;
}

std::optional<std::vector<std::byte>> Comm::restore() {
  PEACHY_REQUIRE(checkpointing(),
                 "rank " << rank() << ": Comm::restore called without a "
                            "checkpoint directory");
  obs::Span span("mpp.restore", "mpp");
  span.arg("rank", rank());
  std::optional<RankCheckpoint> restored = restore_rank_checkpoint(
      ckpt_dir_, size(), rank(), [this](std::span<const std::int64_t> held) {
        const std::vector<std::int64_t> all =
            gather(0, std::vector<std::int64_t>(held.begin(), held.end()));
        std::int64_t epoch = rank_() == 0 ? choose_epoch(all) : 0;
        broadcast(0, &epoch, 1);
        return epoch;
      });
  if (!restored) return std::nullopt;
  epoch_ = restored->epoch;
  if (obs::enabled()) obs_restores().add(1);
  return std::move(restored->blob);
}

void Comm::set_result(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  result_.assign(p, p + bytes);
}

namespace {

// ---------------------------------------------------------------------------
// One rank lifecycle and one outcome fold, shared by thread ranks and
// worker processes. A rank's record is the net::WorkerReport a worker ships
// over its rendezvous socket; thread ranks fill the same struct in place.

std::string what_of(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Runs one rank's life on `comm`: run the body, ship telemetry finals
/// (`ship`, worker processes only), say goodbye even when the body failed
/// (so peers blocked on this rank see PeerDied instead of hanging), and
/// collect the counters and rank 0's result. A body failure is recorded,
/// not thrown; `error`, when given, keeps the original exception object.
net::WorkerReport run_rank(Comm& comm, const std::string& ckpt_dir,
                           const Telemetry* ship,
                           const std::function<void(Comm&)>& body,
                           std::exception_ptr* error) {
  net::WorkerReport report;
  report.reported = true;
  std::unique_ptr<TelemetrySession> session;
  if (ship)
    session = std::make_unique<TelemetrySession>(comm.transport(),
                                                 comm.size(), *ship);
  comm.set_checkpoint_dir(ckpt_dir);
  try {
    body(comm);
    report.ok = true;
  } catch (...) {
    report.error = what_of(std::current_exception());
    if (error) *error = std::current_exception();
  }
  // Finals must ship before the goodbye; finish() never throws.
  if (session) session->finish();
  try {
    comm.transport().shutdown();
  } catch (...) {
    // Peers that died mid-shutdown are already accounted for.
  }
  report.messages_sent = comm.stats().messages_sent;
  report.bytes_sent = comm.stats().bytes_sent;
  if (const auto* tcp = dynamic_cast<net::TcpTransport*>(&comm.transport())) {
    const net::TcpTransport::Stats net = tcp->stats();
    report.window_stalls = net.window_stalls;
    report.frames_abandoned = net.frames_abandoned;
    report.fault_severed = net.fault_severed;
  }
  if (comm.rank() == 0) report.result = comm.take_result();
  return report;
}

/// Sums every rank's counters into `out`, takes rank 0's result, and returns
/// the root-cause rank of a failed world (-1 when every rank succeeded).
/// One failing rank usually drags its peers down with PeerDied, so the root
/// cause is the first failing rank whose failure is not a `peer rank …
/// died` cascade, or the first failing rank when every failure is one.
int fold_ranks(std::vector<net::WorkerReport>& reports, RunOutcome& out) {
  const auto cascade = [](const net::WorkerReport& r) {
    return r.error.find("peer rank") != std::string::npos;
  };
  int root = -1;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const net::WorkerReport& rep = reports[r];
    if (!rep.ok &&
        (root < 0 || (cascade(reports[static_cast<std::size_t>(root)]) &&
                      !cascade(rep))))
      root = static_cast<int>(r);
    out.comm.messages_sent += rep.messages_sent;
    out.comm.bytes_sent += rep.bytes_sent;
    out.net.window_stalls += rep.window_stalls;
    out.net.frames_abandoned += rep.frames_abandoned;
    out.net.fault_severed += rep.fault_severed;
  }
  out.rank0_result = std::move(reports[0].result);
  return root;
}

// ---------------------------------------------------------------------------
// Threaded attempt (inproc mailboxes or tcp sockets; ranks are threads).

RunOutcome run_threads(int ranks, const RunOptions& options,
                       const net::TcpOptions& tcp,
                       const std::string& ckpt_dir,
                       const std::function<void(Comm&)>& body) {
  // Threaded telemetry is the degenerate single-process case: every rank
  // already feeds the same registry/tracer, so there is nothing to ship —
  // serve the process registry live and write the trace after the join.
  const Telemetry& telemetry = options.telemetry;
  std::unique_ptr<obs::MetricsServer> metrics_server;
  if (telemetry.active()) {
    obs::set_enabled(true);
    if (telemetry.metrics_port >= 0) {
      obs::MetricsServer::Options opts;
      opts.port = telemetry.metrics_port;
      metrics_server = std::make_unique<obs::MetricsServer>(opts);
      if (!telemetry.port_file.empty()) {
        std::ofstream out(telemetry.port_file, std::ios::trunc);
        out << metrics_server->port() << "\n";
      }
    }
  }

  std::shared_ptr<net::InprocHub> hub;
  std::unique_ptr<net::RendezvousServer> server;
  if (options.transport == TransportKind::kTcp) {
    server = std::make_unique<net::RendezvousServer>(
        ranks, /*collect_results=*/false, tcp.connect_timeout_ms);
    server->start();
  } else {
    hub = std::make_shared<net::InprocHub>(ranks);
  }

  std::vector<net::WorkerReport> reports(static_cast<std::size_t>(ranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(ranks));
  const auto rank_body = [&](int r) {
    const auto at = static_cast<std::size_t>(r);
    try {
      std::unique_ptr<net::Transport> link;
      if (server)
        link = std::make_unique<net::TcpTransport>(r, ranks, server->port(),
                                                   tcp);
      else
        link = std::make_unique<net::InprocTransport>(hub, r);
      Comm comm(std::move(link));
      reports[at] = run_rank(comm, ckpt_dir, nullptr, body, &errors[at]);
    } catch (...) {
      errors[at] = std::current_exception();
      reports[at].error = what_of(errors[at]);
    }
  };
  if (options.pool != nullptr) {
    // Pooled world: the gang blocks until `ranks` pool threads are free,
    // then runs every rank on reused threads — no per-job thread churn,
    // and concurrent worlds share one machine-wide rank budget.
    options.pool->run_gang(ranks, rank_body);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) threads.emplace_back(rank_body, r);
    for (auto& t : threads) t.join();
  }

  if (metrics_server) metrics_server->stop();
  if (telemetry.active() && !telemetry.trace_path.empty()) {
    try {
      obs::Tracer::global().write_chrome_json(telemetry.trace_path);
    } catch (const Error&) {
      // An unwritable trace path must not fail the world.
    }
  }

  std::exception_ptr server_error;
  if (server) {
    try {
      server->join();
    } catch (...) {
      server_error = std::current_exception();
    }
  }
  RunOutcome out;
  const int root = fold_ranks(reports, out);
  if (root >= 0) std::rethrow_exception(errors[static_cast<std::size_t>(root)]);
  if (server_error) std::rethrow_exception(server_error);
  return out;
}

// ---------------------------------------------------------------------------
// Spawned attempt (ranks are processes; tcp is the only possible substrate).

constexpr const char* kEnvRank = "PEACHY_MPP_WORKER_RANK";
constexpr const char* kEnvWorld = "PEACHY_MPP_WORLD";
constexpr const char* kEnvPort = "PEACHY_MPP_RENDEZVOUS_PORT";
constexpr const char* kEnvFault = "PEACHY_MPP_FAULT";
constexpr const char* kEnvCkpt = "PEACHY_MPP_CKPT_DIR";
constexpr const char* kEnvTelemetryMs = "PEACHY_MPP_TELEMETRY_MS";
constexpr const char* kEnvTrace = "PEACHY_MPP_TRACE";
constexpr const char* kEnvMetricsPort = "PEACHY_MPP_METRICS_PORT";
constexpr const char* kEnvPortFile = "PEACHY_MPP_PORT_FILE";
constexpr const char* kEnvTraceId = "PEACHY_MPP_TRACE_ID";

/// Poll cadence of the spawned world's cancel/deadline watchdog.
constexpr auto kWatchdogPoll = std::chrono::milliseconds(20);

/// Runs one worker process: join the mesh, live the rank lifecycle, report
/// the outcome over the rendezvous connection, _exit. Never returns — a
/// worker process must not fall back into the launcher's code path.
[[noreturn]] void worker_main(int rank, int world, int port,
                              const net::TcpOptions& tcp,
                              const std::string& ckpt_dir,
                              const std::string& flight_dir,
                              const Telemetry& telemetry,
                              const std::function<void(Comm&)>& body) {
  net::TcpOptions worker_tcp = tcp;
  // This process is now a worker: route SIGTERM into the cooperative abort
  // latch (spawn_abort_requested) instead of the default instant death, so
  // a supervised cancel lets the body reach a checkpoint boundary first.
  g_in_spawned_worker.store(true);
  struct sigaction sa = {};
  sa.sa_handler = on_worker_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);
  // The launcher forks with SIGTERM blocked (ProcessLauncher::spawn_one),
  // so a cancel that raced ahead of the handler is pending, not fatal:
  // unblocking delivers it into the latch.
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  ::pthread_sigmask(SIG_UNBLOCK, &term, nullptr);
  // Flight-recorder identity first, telemetry or not: the ring is always
  // on, and a crash or PeerDied dump must name this rank even when the
  // failure happens during mesh setup. Re-reading the dump dir matters for
  // fork()ed workers, which inherit a recorder that may have been
  // constructed in the launcher before the env var was set. An explicit
  // per-run flight_dir (peachyd's per-job dump directory) wins over the
  // inherited environment.
  obs::FlightRecorder::global().set_identity(rank);
  if (!flight_dir.empty())
    obs::FlightRecorder::global().set_dump_dir(flight_dir);
  else if (const char* dir = std::getenv("PEACHY_FLIGHT_DIR"))
    obs::FlightRecorder::global().set_dump_dir(dir);
  obs::FlightRecorder::install_crash_handler();
  // Seed the ring: a crash before the body's first telemetry event must
  // still produce a dump (an empty ring suppresses one).
  obs::FlightRecorder::global().note("worker.start", rank, world);
  if (telemetry.active()) {
    obs::set_enabled(true);
    obs::cluster::set_rank(rank);
    if (telemetry.trace_id) obs::cluster::set_trace_id(telemetry.trace_id);
    // Clock probes ride the heartbeat path; without them the rank-0 trace
    // merge has no offsets to correct with.
    if (worker_tcp.clock_sync_ms <= 0) worker_tcp.clock_sync_ms = 50;
  }
  bool ok = false;
  try {
    auto transport =
        std::make_unique<net::TcpTransport>(rank, world, port, worker_tcp);
    const net::TcpTransport& link = *transport;
    Comm comm(std::move(transport));
    const net::WorkerReport report =
        run_rank(comm, ckpt_dir, telemetry.active() ? &telemetry : nullptr,
                 body, /*error=*/nullptr);
    net::rendezvous_report(link.rendezvous_socket(), rank, report);
    ok = report.ok;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "peachy mpp worker rank %d: %s\n", rank, e.what());
  }
  ::_exit(ok ? 0 : 1);
}

/// An exec'd worker re-entered main() and reached run_world: rebuild its
/// identity and options from the PEACHY_MPP_* environment and run it.
[[noreturn]] void exec_worker_main(const char* rank_env,
                                   const RunOptions& options,
                                   const std::function<void(Comm&)>& body) {
  const char* world_env = std::getenv(kEnvWorld);
  const char* port_env = std::getenv(kEnvPort);
  PEACHY_REQUIRE(world_env && port_env,
                 "worker environment incomplete: "
                     << kEnvRank << " set without " << kEnvWorld << "/"
                     << kEnvPort);
  net::TcpOptions tcp = options.tcp;
  if (const char* fault_env = std::getenv(kEnvFault))
    tcp.fault = net::FaultPlan::decode(fault_env);
  const char* ckpt_env = std::getenv(kEnvCkpt);
  Telemetry telemetry;  // env wins over the call site's default
  if (const char* ms_env = std::getenv(kEnvTelemetryMs)) {
    telemetry.enabled = true;
    telemetry.interval_ms = std::max(1, std::atoi(ms_env));
    if (const char* trace_env = std::getenv(kEnvTrace))
      telemetry.trace_path = trace_env;
    if (const char* mport_env = std::getenv(kEnvMetricsPort))
      telemetry.metrics_port = std::atoi(mport_env);
    if (const char* pfile_env = std::getenv(kEnvPortFile))
      telemetry.port_file = pfile_env;
    if (const char* tid_env = std::getenv(kEnvTraceId))
      telemetry.trace_id = std::strtoull(tid_env, nullptr, 10);
  }
  worker_main(std::atoi(rank_env), std::atoi(world_env), std::atoi(port_env),
              tcp, ckpt_env ? ckpt_env : "", /*flight_dir=*/"", telemetry,
              body);
}

/// State a spawned world keeps across restart attempts: one launcher, so
/// respawned ranks replace (kill + reap) their previous incarnations slot
/// by slot; the absolute deadline, so a job that keeps crashing and
/// restarting still dies on time; and which guard tripped (1 = cancel hook,
/// 2 = deadline).
struct SpawnState {
  net::ProcessLauncher launcher;
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<int> fired{0};
};

/// One attempt at a spawned world: spawn every rank (through the launcher's
/// respawn slots, so a later attempt replaces earlier incarnations), serve
/// the rendezvous, reap, and either assemble the outcome or throw the
/// root-cause error. With a cancel hook or deadline a watchdog thread
/// (started only after the forks, to keep the fork itself single-threaded
/// here) polls them and escalates SIGTERM -> grace -> SIGKILL.
RunOutcome spawn_attempt(int ranks, const RunOptions& options,
                         const net::TcpOptions& tcp,
                         const std::string& ckpt_dir,
                         const Telemetry& telemetry,
                         const std::function<void(Comm&)>& body,
                         SpawnState& state) {
  const SpawnControl& control = options.spawn_control;
  net::ProcessLauncher& launcher = state.launcher;
  // The serve/wait budget has to cover mesh setup plus the whole body; a
  // configured deadline extends it so the watchdog, not the rendezvous
  // timeout, is what ends an over-deadline run.
  int budget_ms = tcp.connect_timeout_ms + tcp.recv_timeout_ms;
  if (control.deadline_ms > 0)
    budget_ms = std::max(
        budget_ms, control.deadline_ms + control.term_grace_ms + 2000);

  net::RendezvousServer server(ranks, /*collect_results=*/true, budget_ms);
  launcher.set_child_limits(control.limits);
  if (options.worker_argv.empty()) {
    launcher.fork_workers(ranks, [&](int rank) -> int {
      server.close_listener_in_child();
      worker_main(rank, ranks, server.port(), tcp, ckpt_dir,
                  control.flight_dir, telemetry, body);
    });
  } else {
    const int port = server.port();
    launcher.exec_workers(
        ranks, options.worker_argv,
        [&](int rank) -> std::vector<std::pair<std::string, std::string>> {
          std::vector<std::pair<std::string, std::string>> env = {
              {kEnvRank, std::to_string(rank)},
              {kEnvWorld, std::to_string(ranks)},
              {kEnvPort, std::to_string(port)},
              {kEnvFault, tcp.fault.encode()}};
          if (!ckpt_dir.empty()) env.emplace_back(kEnvCkpt, ckpt_dir);
          if (!control.flight_dir.empty())
            env.emplace_back("PEACHY_FLIGHT_DIR", control.flight_dir);
          if (telemetry.active()) {
            env.emplace_back(kEnvTelemetryMs,
                             std::to_string(telemetry.interval_ms));
            env.emplace_back(kEnvTraceId,
                             std::to_string(telemetry.trace_id));
            if (!telemetry.trace_path.empty())
              env.emplace_back(kEnvTrace, telemetry.trace_path);
            if (telemetry.metrics_port >= 0)
              env.emplace_back(kEnvMetricsPort,
                               std::to_string(telemetry.metrics_port));
            if (!telemetry.port_file.empty())
              env.emplace_back(kEnvPortFile, telemetry.port_file);
          }
          return env;
        });
  }

  // The watchdog starts strictly after the forks above, so the children
  // never inherit a half-born thread. It only touches the launcher through
  // signal-sending entry points, which are mutex-guarded against the
  // wait_all reap below. It polls every kWatchdogPoll, but waits on a
  // condition variable that the stop notifies, so its join never sleeps
  // out the rest of a poll after the workers are gone.
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool watchdog_stop = false;
  // Waits until `until` unless stopped first; true when stopped.
  const auto stopped_by = [&](Clock::time_point until) {
    std::unique_lock lock(watchdog_mu);
    return watchdog_cv.wait_until(lock, until, [&] { return watchdog_stop; });
  };
  std::thread watchdog;
  if (control.should_abort || control.deadline_ms > 0) {
    watchdog = std::thread([&] {
      do {
        int why = 0;
        if (control.should_abort && control.should_abort())
          why = 1;
        else if (control.deadline_ms > 0 && Clock::now() >= state.deadline)
          why = 2;
        if (why != 0) {
          state.fired.store(why);
          launcher.terminate_all(SIGTERM);
          if (!stopped_by(Clock::now() +
                          std::chrono::milliseconds(control.term_grace_ms)))
            launcher.kill_all();
          return;
        }
      } while (!stopped_by(Clock::now() + kWatchdogPoll));
    });
  }

  // Serve inline, then reap every worker (deadline-bounded, never hangs).
  std::exception_ptr serve_error;
  try {
    server.serve();
  } catch (...) {
    serve_error = std::current_exception();
  }
  obs::Span reap("mpp.reap", "mpp");
  const std::int64_t reap_t0 = obs::enabled() ? now_ns() : 0;
  const std::vector<int> codes = launcher.wait_all(budget_ms);
  {
    std::lock_guard lock(watchdog_mu);
    watchdog_stop = true;
  }
  watchdog_cv.notify_all();
  if (watchdog.joinable()) watchdog.join();
  if (obs::enabled()) obs_reap_ns().observe(now_ns() - reap_t0);
  reap.close();

  std::vector<net::WorkerReport>& reports = server.reports();
  for (int r = 0; r < ranks; ++r) {
    net::WorkerReport& rep = reports[static_cast<std::size_t>(r)];
    if (rep.reported) continue;
    const int code = codes[static_cast<std::size_t>(r)];
    rep.error = "died before reporting (exit code " + std::to_string(code) +
                ": " + net::describe_exit_code(code) + ")";
  }
  RunOutcome out;
  const int root = fold_ranks(reports, out);
  // Cumulative max across attempts: the launcher is shared by the whole
  // supervise loop and folds every reaped incarnation into its peak.
  out.peak_rss_bytes = launcher.peak_rss_bytes();
  std::string root_error;
  SpawnFailure root_kind = SpawnFailure::kNonzero;
  if (root >= 0) {
    const net::WorkerReport& rep = reports[static_cast<std::size_t>(root)];
    root_error = "mpp worker rank " + std::to_string(root) +
                 (rep.reported ? " failed: " : " ") + rep.error;
    if (!rep.reported &&
        net::classify_exit_code(codes[static_cast<std::size_t>(root)]) ==
            net::ExitClass::kSignaled)
      root_kind = SpawnFailure::kCrash;
  }
  // A tripped guard outranks the per-worker errors below it: a deadline or
  // forced cancel explains every death it caused, and both are terminal
  // (supervise must not spend restart budget re-running stopped work).
  if (state.fired.load() == 2)
    throw SpawnError(
        SpawnFailure::kTimeout,
        "spawned world exceeded its " + std::to_string(control.deadline_ms) +
            " ms wall-clock deadline (SIGTERM, then SIGKILL after " +
            std::to_string(control.term_grace_ms) + " ms grace)");
  if (state.fired.load() == 1 && (root >= 0 || serve_error))
    throw SpawnError(SpawnFailure::kCancelled,
                     "spawned world cancelled; workers did not exit within "
                     "the " +
                         std::to_string(control.term_grace_ms) +
                         " ms SIGTERM grace" +
                         (root_error.empty() ? "" : " (" + root_error + ")"));
  if (root >= 0) throw SpawnError(root_kind, root_error);
  if (serve_error) std::rethrow_exception(serve_error);
  return out;
}

/// Resolves the checkpoint directory a supervised run uses. A caller-named
/// directory is created and kept (that is what cross-invocation resume
/// needs); an unnamed one under supervision gets a private temp directory
/// that dies with the run. Unsupervised runs with no directory get "" —
/// checkpointing stays disabled and Comm::checkpoint throws.
class CkptDirGuard {
 public:
  explicit CkptDirGuard(const Resilience& resilience)
      : remove_on_success_(resilience.remove_checkpoint_on_success) {
    if (!resilience.checkpoint_dir.empty()) {
      dir_ = resilience.checkpoint_dir;
      std::filesystem::create_directories(dir_);
    } else if (resilience.max_restarts > 0) {
      char tmpl[] = "/tmp/peachy-ckpt-XXXXXX";
      PEACHY_REQUIRE(::mkdtemp(tmpl) != nullptr,
                     "mkdtemp failed: " << std::strerror(errno));
      dir_ = tmpl;
      owned_ = true;
    }
  }
  ~CkptDirGuard() {
    if (owned_) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  CkptDirGuard(const CkptDirGuard&) = delete;
  CkptDirGuard& operator=(const CkptDirGuard&) = delete;

  const std::string& dir() const { return dir_; }

  /// Retention policy for a *named* directory after a clean finish: by
  /// default it is kept (resume material); with
  /// Resilience::remove_checkpoint_on_success it is deleted so finished
  /// jobs stop accumulating checkpoint directories. Failed runs always keep
  /// the directory — it is exactly what the retry needs.
  void on_success() {
    if (!remove_on_success_ || owned_ || dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

 private:
  std::string dir_;
  bool owned_ = false;
  bool remove_on_success_ = false;
};

}  // namespace

RunOutcome run_world(int ranks, const RunOptions& options,
                     const std::function<void(Comm&)>& body) {
  // An exec'd worker re-enters main() and reaches this same call site; the
  // environment routes it into the worker path instead of launching again.
  if (options.spawn)
    if (const char* rank_env = std::getenv(kEnvRank))
      exec_worker_main(rank_env, options, body);

  PEACHY_REQUIRE(ranks >= 1, "world needs >= 1 rank, got " << ranks);
  CkptDirGuard ckpt(options.resilience);
  // Mint the cluster trace id once in the launcher so every rank (and every
  // restart attempt) lands in the same trace.
  Telemetry telemetry = options.telemetry;
  if (telemetry.active() && telemetry.trace_id == 0)
    telemetry.trace_id = obs::cluster::trace_id();
  SpawnState spawn;
  if (options.spawn_control.deadline_ms > 0)
    spawn.deadline = Clock::now() + std::chrono::milliseconds(
                                        options.spawn_control.deadline_ms);

  // Supervision: run one attempt, and on a runtime Error either give up
  // (budget exhausted) or clear the injected faults and go again — the next
  // attempt restores from whatever checkpoint the failed one committed.
  net::TcpOptions tcp = options.tcp;
  for (int attempt = 0;; ++attempt) {
    try {
      RunOutcome out =
          options.spawn
              ? spawn_attempt(ranks, options, tcp, ckpt.dir(), telemetry,
                              body, spawn)
              : run_threads(ranks, options, tcp, ckpt.dir(), body);
      out.restarts = attempt;
      ckpt.on_success();
      return out;
    } catch (const Error& e) {
      // Deliberate stops (deadline, forced cancel) are terminal: restarting
      // would re-run work the caller just told us to kill.
      if (const auto* stop = dynamic_cast<const SpawnError*>(&e);
          stop != nullptr && (stop->kind() == SpawnFailure::kTimeout ||
                              stop->kind() == SpawnFailure::kCancelled))
        throw;
      if (attempt >= options.resilience.max_restarts) throw;
      if (obs::enabled()) {
        obs_restarts().add(1);
        obs::Tracer::global().instant("mpp.restart", "mpp",
                                      {{"attempt", attempt + 1}});
      }
      std::fprintf(stderr,
                   "peachy mpp: world failed (%s); restart %d of %d\n",
                   e.what(), attempt + 1, options.resilience.max_restarts);
      tcp.fault = net::FaultPlan{};
    }
  }
}

}  // namespace peachy::mpp

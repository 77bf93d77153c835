#include "svc/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "core/error.hpp"
#include "mpp/mpp.hpp"
#include "net/metrics_server.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "svc/runner.hpp"

namespace peachy::svc {

namespace {

constexpr int kRequestTimeoutMs = 5000;

/// A reply whose payload is one message string.
std::pair<ReplyStatus, std::vector<std::byte>> message(ReplyStatus status,
                                                       const std::string& text) {
  std::vector<std::byte> reply;
  append_string(reply, text);
  return {status, std::move(reply)};
}

/// Parses "alice=3,bob=1" into (tenant, weight) pairs; throws on junk.
std::vector<std::pair<std::string, int>> parse_weights(
    const std::string& spec) {
  std::vector<std::pair<std::string, int>> weights;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    PEACHY_REQUIRE(eq != std::string::npos && eq > 0 && eq + 1 < entry.size(),
                   "bad tenant weight entry '" << entry
                                               << "' (want tenant=weight)");
    weights.emplace_back(entry.substr(0, eq),
                         std::stoi(entry.substr(eq + 1)));
  }
  return weights;
}

SchedulerOptions scheduler_options(const DaemonOptions& o) {
  SchedulerOptions s;
  s.max_queued = o.max_queued;
  s.max_queued_per_tenant = o.max_queued_per_tenant;
  // Quantum = pool capacity: any admissible job fits in one turn, so a
  // tenant's weight translates directly into its rank-time share.
  s.quantum = std::max(o.pool_ranks, 1);
  return s;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      store_(options_.state_dir),
      pool_(std::max(options_.pool_ranks, 1)),
      sched_(scheduler_options(options_)) {
  PEACHY_REQUIRE(!options_.state_dir.empty(), "peachyd needs a state dir");
  paused_ = options_.start_paused;
  for (const auto& [tenant, weight] : parse_weights(options_.tenant_weights))
    sched_.set_weight(tenant, weight);

  // Startup recovery: every committed record re-enters the table; QUEUED
  // jobs re-enter the scheduler; RUNNING jobs (the dead daemon's inflight
  // set) are demoted to QUEUED and will resume from their checkpoints.
  for (JobRecord& rec : store_.load_all()) {
    if (rec.state == JobState::kRunning) {
      rec.state = JobState::kQueued;
      ++rec.restarts;
      store_.put(rec);
      ++recovered_running_;
    }
    if (rec.state == JobState::kQueued) {
      sched_.enqueue(rec.id, rec.spec.tenant,
                     static_cast<int>(rec.spec.ranks));
      ++recovered_queued_;
    }
    jobs_.emplace(rec.id, std::move(rec));
  }

  listen_ = net::Socket::listen_on(options_.host, options_.port, 64);
  port_ = listen_.local_port();
  PEACHY_CHECK(::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) == 0);
  if (options_.metrics_port >= 0)
    metrics_ = std::make_unique<obs::MetricsServer>(
        obs::MetricsServer::Options{options_.host, options_.metrics_port});

  listener_ = std::thread([this] { listen_loop(); });
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Daemon::~Daemon() { stop(); }

int Daemon::metrics_port() const { return metrics_ ? metrics_->port() : -1; }

void Daemon::resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  dispatch_cv_.notify_all();
}

void Daemon::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stopping_; });
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    dispatch_cv_.notify_all();
    shutdown_cv_.notify_all();
  }
  if (wake_pipe_[1] >= 0) {
    const char b = 'x';
    [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &b, 1);
  }
  if (listener_.joinable()) listener_.join();
  listen_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Running jobs finish (their QUEUED successors stay on disk for the
  // next start); executors park inside the pool, so join before tearing
  // the pool down with the rest of the members.
  std::vector<std::thread> executors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    executors.swap(executors_);
  }
  for (std::thread& t : executors)
    if (t.joinable()) t.join();
  metrics_.reset();
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

void Daemon::bump(const std::string& name, const std::string& tenant) {
  obs::Registry::global().counter("svc.jobs." + name).add(1);
  obs::Registry::global().counter("svc.tenant." + tenant + "." + name).add(1);
}

// --- Listener --------------------------------------------------------------

void Daemon::listen_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_.fd(), POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, 1000);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (rc <= 0 || !(fds[0].revents & POLLIN)) continue;
    try {
      handle_connection(listen_.accept(1000));
    } catch (const Error&) {
      // One misbehaving client (timeout, torn frame, reset) must not take
      // the service down.
    }
  }
}

void Daemon::handle_connection(net::Socket conn) {
  net::FrameHeader header;
  std::vector<std::byte> payload;
  if (!net::recv_frame(conn, header, payload, kRequestTimeoutMs)) return;
  std::pair<ReplyStatus, std::vector<std::byte>> answer;
  try {
    answer = header.type == net::FrameType::kJobRequest
                 ? handle_request(static_cast<Op>(header.tag), payload)
                 : message(ReplyStatus::kError, "expected a kJobRequest frame");
  } catch (const std::exception& e) {
    answer = message(ReplyStatus::kError, e.what());
  }
  const auto& [status, reply] = answer;
  net::FrameHeader rh;
  rh.type = net::FrameType::kJobReply;
  rh.tag = static_cast<std::int32_t>(status);
  net::send_frame(conn, rh, reply.data(), reply.size());
  conn.shutdown_write();
}

std::pair<ReplyStatus, std::vector<std::byte>> Daemon::handle_request(
    Op op, const std::vector<std::byte>& payload) {
  bytes::Reader in(payload);
  std::vector<std::byte> reply;
  switch (op) {
    case Op::kSubmit:
      return handle_submit(payload);
    case Op::kStatus: {
      const std::uint64_t id = in.u64();
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        return message(ReplyStatus::kNotFound,
                       "no job " + std::to_string(id));
      }
      const JobRecord& rec = it->second;
      JobStatus s;
      s.id = rec.id;
      s.state = rec.state;
      s.kind = rec.spec.kind;
      s.tenant = rec.spec.tenant;
      s.name = rec.spec.name;
      s.error = rec.error;
      s.restarts = rec.restarts;
      s.peak_rss_bytes = rec.peak_rss_bytes;
      s.has_result = !rec.result.empty();
      append_status(reply, s);
      return {ReplyStatus::kOk, std::move(reply)};
    }
    case Op::kResult: {
      const std::uint64_t id = in.u64();
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        return message(ReplyStatus::kNotFound,
                       "no job " + std::to_string(id));
      }
      if (it->second.state != JobState::kDone) {
        return message(ReplyStatus::kError,
                       "job " + std::to_string(id) + " is " +
                           to_string(it->second.state) +
                           (it->second.error.empty()
                                ? ""
                                : ": " + it->second.error));
      }
      return {ReplyStatus::kOk, it->second.result};
    }
    case Op::kCancel: {
      const std::uint64_t id = in.u64();
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        return message(ReplyStatus::kNotFound,
                       "no job " + std::to_string(id));
      }
      JobRecord& rec = it->second;
      if (is_terminal(rec.state)) {
        return message(ReplyStatus::kOk,
                       std::string("already ") + to_string(rec.state));
      }
      if (rec.state == JobState::kQueued && sched_.remove(id)) {
        rec.state = JobState::kCancelled;
        store_.put(rec);
        store_.remove_checkpoint(id);
        bump("cancelled", rec.spec.tenant);
        // The dequeue may unblock the dispatcher (a wide job behind this
        // one could now be at the front).
        dispatch_cv_.notify_all();
        return message(ReplyStatus::kOk, "cancelled");
      }
      // RUNNING (or just picked): cooperative — the job's should_abort
      // sees the flag at its next poll point.
      cancel_requested_.insert(id);
      return message(ReplyStatus::kOk, "cancellation requested");
    }
    case Op::kList: {
      const std::string tenant = in.string();
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<JobBrief> briefs;
      for (const auto& [id, rec] : jobs_) {
        if (!tenant.empty() && rec.spec.tenant != tenant) continue;
        briefs.push_back(JobBrief{id, rec.spec.kind, rec.state,
                                  rec.spec.tenant, rec.spec.name});
      }
      append_briefs(reply, briefs);
      return {ReplyStatus::kOk, std::move(reply)};
    }
    case Op::kShutdown: {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
      return message(ReplyStatus::kOk, "shutting down");
    }
    case Op::kStats: {
      const ServiceStats s = stats();
      append_stats(reply, s);
      return {ReplyStatus::kOk, std::move(reply)};
    }
  }
  return message(ReplyStatus::kError,
                 "unknown op " + std::to_string(static_cast<int>(op)));
}

std::pair<ReplyStatus, std::vector<std::byte>> Daemon::handle_submit(
    const std::vector<std::byte>& payload) {
  bytes::Reader in(payload);
  const JobSpec spec = read_spec(in);
  std::vector<std::byte> reply;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_ || shutdown_requested_) {
    return message(ReplyStatus::kRejected, "daemon is shutting down");
  }
  // Admission control: reject-with-reason instead of queueing without
  // bound. A job wider than the pool could never run — reject it too.
  if (static_cast<int>(spec.ranks) > pool_.capacity()) {
    ++rejected_;
    bump("rejected", spec.tenant);
    return message(ReplyStatus::kRejected,
                   "job wants " + std::to_string(spec.ranks) +
                       " ranks, pool has " + std::to_string(pool_.capacity()));
  }
  const std::string refusal = sched_.try_admit(spec.tenant);
  if (!refusal.empty()) {
    ++rejected_;
    bump("rejected", spec.tenant);
    return message(ReplyStatus::kRejected, refusal);
  }
  JobRecord rec;
  const std::uint64_t id = rec.id = store_.allocate_id();
  rec.state = JobState::kQueued;
  rec.spec = spec;
  // Durability before acknowledgement: the record hits disk before the
  // reply leaves, so an acknowledged submit survives any daemon death.
  store_.put(rec);
  sched_.enqueue(id, spec.tenant, static_cast<int>(spec.ranks));
  jobs_.emplace(id, std::move(rec));
  ++submitted_;
  bump("submitted", spec.tenant);
  obs::Registry::global().gauge("svc.jobs.queued").set(sched_.queued());
  dispatch_cv_.notify_all();
  bytes::append_u64(reply, id);
  return {ReplyStatus::kOk, std::move(reply)};
}

// --- Dispatcher / executors ------------------------------------------------

void Daemon::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    dispatch_cv_.wait(lock, [this] {
      return stopping_ ||
             (!paused_ && sched_.queued() > 0 &&
              busy_ranks_ < pool_.capacity());
    });
    if (stopping_) return;
    const auto id = sched_.pick(pool_.capacity() - busy_ranks_);
    if (!id) {
      // Front job needs more ranks than are free — wait for a completion
      // to free some. Timed, as a backstop against any missed notify.
      dispatch_cv_.wait_for(lock, std::chrono::milliseconds(500));
      continue;
    }
    JobRecord& rec = jobs_.at(*id);
    rec.state = JobState::kRunning;
    store_.put(rec);
    busy_ranks_ += static_cast<int>(rec.spec.ranks);
    ++running_jobs_;
    obs::Registry::global().gauge("svc.jobs.queued").set(sched_.queued());
    obs::Registry::global().gauge("svc.jobs.running").set(running_jobs_);
    obs::Registry::global().gauge("svc.pool.busy_ranks").set(busy_ranks_);
    executors_.emplace_back([this, job = *id] { execute(job); });
  }
}

void Daemon::execute(std::uint64_t id) {
  JobSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = jobs_.at(id).spec;
  }
  // Resolve the substrate: the spec's explicit ask wins, then the
  // daemon-wide default, then threads.
  Isolation iso = spec.isolation != Isolation::kDefault
                      ? spec.isolation
                      : options_.default_isolation;
  if (iso == Isolation::kDefault) iso = Isolation::kThreads;
  RunnerOptions ro;
  ro.isolation = iso;
  ro.pool = &pool_;
  ro.checkpoint_dir = store_.checkpoint_dir(id);
  ro.max_restarts = options_.max_restarts;
  ro.should_abort = [this, id] {
    std::lock_guard<std::mutex> lock(mu_);
    return cancel_requested_.count(id) > 0;
  };
  if (iso == Isolation::kProcess) {
    ro.rlimit_as_bytes = options_.rlimit_as_bytes;
    ro.rlimit_cpu_seconds = options_.rlimit_cpu_seconds;
    ro.deadline_ms = static_cast<int>(
        spec.deadline_ms != 0 ? spec.deadline_ms : options_.job_deadline_ms);
    ro.term_grace_ms = options_.term_grace_ms;
    ro.flight_dir = store_.flight_dir(id);
    // The crash handler writes its dump with async-signal-safe open();
    // it cannot mkdir, so the directory must exist before any worker runs.
    std::error_code ec;
    std::filesystem::create_directories(ro.flight_dir, ec);
  }
  RunnerOutcome out;
  std::string error;
  bool killed_by_cancel = false;
  const auto started = std::chrono::steady_clock::now();
  try {
    out = run_job(spec, ro);
  } catch (const mpp::SpawnError& e) {
    // Exit-status triage for process-isolated jobs. A cancel that had to
    // be finished with signals is still a cancel, not a failure; the rest
    // land FAILED with the cause class up front and the flight-recorder
    // dump path attached, so `peachyctl status` tells the whole story.
    switch (e.kind()) {
      case mpp::SpawnFailure::kCancelled: killed_by_cancel = true; break;
      case mpp::SpawnFailure::kTimeout:
        error = std::string("deadline exceeded: ") + e.what();
        break;
      case mpp::SpawnFailure::kCrash:
        error = std::string("worker crashed: ") + e.what();
        break;
      case mpp::SpawnFailure::kNonzero:
        error = std::string("worker failed: ") + e.what();
        break;
    }
    if (!error.empty() && !ro.flight_dir.empty())
      error += "; flight dump: " + ro.flight_dir;
  } catch (const std::exception& e) {
    error = e.what();
    if (error.empty()) error = "job execution failed";
  }
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - started)
                              .count();
  std::lock_guard<std::mutex> lock(mu_);
  JobRecord& rec = jobs_.at(id);
  if (killed_by_cancel || out.aborted) {
    rec.state = JobState::kCancelled;
    bump("cancelled", rec.spec.tenant);
  } else if (!error.empty()) {
    rec.state = JobState::kFailed;
    rec.error = error;
    bump("failed", rec.spec.tenant);
  } else {
    rec.state = JobState::kDone;
    rec.result = std::move(out.result);
    bump("completed", rec.spec.tenant);
  }
  rec.restarts += static_cast<std::uint32_t>(out.restarts);
  // wait4 accounting from the worker processes; threaded jobs leave 0.
  rec.peak_rss_bytes = std::max(rec.peak_rss_bytes, out.peak_rss_bytes);
  if (rec.peak_rss_bytes > 0)
    obs::Registry::global()
        .histogram("svc.job.peak_rss_bytes")
        .observe(static_cast<std::int64_t>(rec.peak_rss_bytes));
  // Terminal record first, checkpoint removal second: a crash in between
  // re-runs a finished job at worst; the opposite order could lose one.
  store_.put(rec);
  store_.remove_checkpoint(id);
  // The flight dir outlives FAILED jobs (its path is in the error string);
  // jobs that end any other way leave nothing to post-mortem.
  if (rec.state != JobState::kFailed) store_.remove_flight(id);
  // Settle the fair-share ledger with the measured rank-time, so tenants
  // of long jobs pay for what they used rather than what they claimed.
  sched_.complete(id, static_cast<long long>(rec.spec.ranks) * elapsed_ms);
  ++completed_;
  busy_ranks_ -= static_cast<int>(rec.spec.ranks);
  --running_jobs_;
  cancel_requested_.erase(id);
  obs::Registry::global().gauge("svc.jobs.running").set(running_jobs_);
  obs::Registry::global().gauge("svc.pool.busy_ranks").set(busy_ranks_);
  dispatch_cv_.notify_all();
}

int Daemon::pending_cancels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cancel_requested_.size());
}

ServiceStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.queued = static_cast<std::uint32_t>(sched_.queued());
  s.running = static_cast<std::uint32_t>(running_jobs_);
  s.pool_ranks = static_cast<std::uint32_t>(pool_.capacity());
  s.busy_ranks = static_cast<std::uint32_t>(busy_ranks_);
  s.submitted = submitted_;
  s.completed = completed_;
  s.rejected = rejected_;
  return s;
}

}  // namespace peachy::svc

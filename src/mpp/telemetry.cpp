#include "mpp/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "net/metrics_server.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "obs/cluster.hpp"

namespace peachy::mpp::telemetry {

namespace {

constexpr std::uint32_t kSnapshotVersion = 1;

obs::MetricSample::Kind read_kind(bytes::Reader& in) {
  const std::uint32_t kind = in.u32();
  PEACHY_REQUIRE(kind <= 2, "telemetry snapshot has metric kind " << kind);
  return static_cast<obs::MetricSample::Kind>(kind);
}

// The phase lands verbatim in the merged Chrome trace JSON.
obs::TraceEvent::Phase read_phase(bytes::Reader& in) {
  const std::uint32_t ph = in.u32();
  PEACHY_REQUIRE(ph == 'X' || ph == 'i', "telemetry snapshot has phase " << ph);
  return static_cast<obs::TraceEvent::Phase>(ph);
}

}  // namespace

std::vector<std::byte> encode_snapshot(
    int rank, const std::vector<obs::MetricSample>& samples,
    const std::vector<obs::TraceEvent>& events) {
  using namespace bytes;
  std::vector<std::byte> out;
  append_u32(out, kSnapshotVersion);
  append_u32(out, static_cast<std::uint32_t>(rank));
  append_u64(out, samples.size());
  for (const obs::MetricSample& s : samples) {
    append_string(out, s.name);
    append_u32(out, static_cast<std::uint32_t>(s.kind));
    append_i64(out, s.value);
    append_u64(out, s.count);
    append_i64(out, s.sum);
    append_u64(out, s.buckets.size());
    for (std::uint64_t b : s.buckets) append_u64(out, b);
  }
  append_u64(out, events.size());
  for (const obs::TraceEvent& ev : events) {
    append_string(out, ev.name);
    append_string(out, ev.cat);
    append_u32(out, static_cast<std::uint32_t>(ev.ph));
    append_i64(out, ev.ts_ns);
    append_i64(out, ev.dur_ns);
    append_u32(out, static_cast<std::uint32_t>(ev.tid));
    append_u64(out, ev.args.size());
    for (const auto& [key, value] : ev.args) {
      append_string(out, key);
      append_i64(out, value);
    }
  }
  return out;
}

Snapshot decode_snapshot(const std::vector<std::byte>& payload) {
  bytes::Reader in(payload);
  const std::uint32_t version = in.u32();
  PEACHY_REQUIRE(version == kSnapshotVersion,
                 "telemetry snapshot version " << version << " != "
                                               << kSnapshotVersion);
  Snapshot snap;
  snap.rank = static_cast<int>(in.u32());
  // Minimum encoded sizes: a sample is 40 bytes plus its name and buckets,
  // an event 40 bytes plus its strings and args, an arg 12 bytes.
  snap.samples.resize(in.count(in.u64(), 40));
  for (obs::MetricSample& s : snap.samples) {
    s.name = in.string();
    s.kind = read_kind(in);
    s.value = in.i64();
    s.count = in.u64();
    s.sum = in.i64();
    s.buckets.resize(in.count(in.u64(), 8));
    for (std::uint64_t& b : s.buckets) b = in.u64();
  }
  snap.events.resize(in.count(in.u64(), 40));
  for (obs::TraceEvent& ev : snap.events) {
    ev.name = in.string();
    ev.cat = in.string();
    ev.ph = read_phase(in);
    ev.ts_ns = in.i64();
    ev.dur_ns = in.i64();
    ev.tid = static_cast<int>(in.u32());
    ev.args.resize(in.count(in.u64(), 12));
    for (auto& [key, value] : ev.args) {
      key = in.string();
      value = in.i64();
    }
  }
  in.expect_end("telemetry snapshot");
  return snap;
}

}  // namespace peachy::mpp::telemetry

namespace peachy::mpp {

using telemetry::kTagFinal;
using telemetry::kTagPeriodic;

struct TelemetrySession::Impl {
  net::Transport& transport;
  const int world;
  const Telemetry cfg;
  const int rank;

  std::mutex wake_mu;
  std::condition_variable wake_cv;
  bool stopping = false;
  std::atomic<bool> finished{false};
  std::thread worker;

  // Rank 0 only: latest periodic snapshot per peer + the live endpoint.
  std::mutex latest_mu;
  std::map<int, std::vector<obs::MetricSample>> latest;
  std::unique_ptr<obs::MetricsServer> server;

  Impl(net::Transport& t, int world_size, const Telemetry& config)
      : transport(t), world(world_size), cfg(config), rank(t.rank()) {}

  /// Sleeps up to `ms`; returns false when finish() asked us to stop.
  bool sleep_unless_stopping(int ms) {
    std::unique_lock lock(wake_mu);
    wake_cv.wait_for(lock, std::chrono::milliseconds(ms),
                     [&] { return stopping; });
    return !stopping;
  }

  std::string rollup_text() {
    std::vector<obs::cluster::RankMetrics> ranks;
    ranks.push_back({0, obs::Registry::global().samples()});
    {
      std::lock_guard lock(latest_mu);
      for (const auto& [r, samples] : latest) ranks.push_back({r, samples});
    }
    return obs::cluster::cluster_prometheus_text(ranks);
  }

  /// Worker loop (rank > 0): periodically ship a metrics-only snapshot to
  /// rank 0. A send failure (rank 0 died, link severed) ends shipping but
  /// never the world — the body's own traffic reports that error.
  void shipper_loop() {
    while (sleep_unless_stopping(cfg.interval_ms)) {
      try {
        const std::vector<std::byte> payload = telemetry::encode_snapshot(
            rank, obs::Registry::global().samples(), {});
        transport.send(0, kTagPeriodic, payload.data(), payload.size());
      } catch (const Error&) {
        return;
      }
    }
  }

  /// Hub loop (rank 0): drain periodic snapshots without ever blocking on
  /// a peer (try_recv survives deaths), keep the latest per rank.
  void hub_loop() {
    const int tick_ms = std::max(10, std::min(cfg.interval_ms, 50));
    std::vector<std::byte> payload;
    do {
      for (int r = 1; r < world; ++r) {
        while (transport.try_recv(r, kTagPeriodic, payload)) {
          try {
            telemetry::Snapshot snap = telemetry::decode_snapshot(payload);
            std::lock_guard lock(latest_mu);
            latest[r] = std::move(snap.samples);
          } catch (const Error&) {
            // A corrupt snapshot only costs one refresh.
          }
        }
      }
    } while (sleep_unless_stopping(tick_ms));
  }

  void start() {
    if (rank == 0) {
      if (cfg.metrics_port >= 0) {
        obs::MetricsServer::Options opts;
        opts.port = cfg.metrics_port;
        server = std::make_unique<obs::MetricsServer>(
            opts, [this] { return rollup_text(); });
        if (!cfg.port_file.empty()) {
          std::ofstream out(cfg.port_file, std::ios::trunc);
          out << server->port() << "\n";
        }
      }
      worker = std::thread([this] { hub_loop(); });
    } else {
      worker = std::thread([this] { shipper_loop(); });
    }
  }

  void stop_worker() {
    {
      std::lock_guard lock(wake_mu);
      stopping = true;
    }
    wake_cv.notify_all();
    if (worker.joinable()) worker.join();
  }

  void finish_worker() {
    stop_worker();
    try {
      const std::vector<std::byte> payload = telemetry::encode_snapshot(
          rank, obs::Registry::global().samples(),
          obs::Tracer::global().snapshot());
      transport.send(0, kTagFinal, payload.data(), payload.size());
    } catch (const Error&) {
      // Rank 0 is gone; its gather will account for us as dead.
    }
  }

  void finish_hub() {
    stop_worker();
    // Gather finals. A rank that died before shipping one surfaces as a
    // recv error here — skip it; its flight recorder has the story.
    std::map<int, telemetry::Snapshot> finals;
    for (int r = 1; r < world; ++r) {
      try {
        finals[r] = telemetry::decode_snapshot(transport.recv(r, kTagFinal));
      } catch (const Error&) {
      }
    }
    {
      std::lock_guard lock(latest_mu);
      for (auto& [r, snap] : finals) latest[r] = snap.samples;
    }
    if (!cfg.trace_path.empty()) {
      // Clock-correct each rank's events into rank 0's timebase: the
      // estimator reports offset = peer_clock - local_clock, so a peer
      // timestamp maps to local time by subtracting it.
      std::map<int, net::TcpTransport::ClockEstimate> clocks;
      if (auto* tcp = dynamic_cast<net::TcpTransport*>(&transport))
        clocks = tcp->clock_estimates();
      std::vector<obs::TraceEvent> events = obs::Tracer::global().snapshot();
      for (obs::TraceEvent& ev : events) ev.pid = 0;
      std::map<int, std::string> names{{0, "rank 0"}};
      for (auto& [r, snap] : finals) {
        std::int64_t offset_ns = 0;
        if (auto it = clocks.find(r); it != clocks.end())
          offset_ns = it->second.offset_ns;
        for (obs::TraceEvent& ev : snap.events) {
          ev.pid = r;
          ev.ts_ns -= offset_ns;
          events.push_back(std::move(ev));
        }
        names[r] = "rank " + std::to_string(r);
      }
      try {
        obs::write_chrome_trace(cfg.trace_path, std::move(events), names);
      } catch (const Error&) {
        // An unwritable trace path must not fail the world.
      }
    }
    if (server) server->stop();
  }
};

TelemetrySession::TelemetrySession(net::Transport& transport, int world_size,
                                   const Telemetry& config)
    : impl_(std::make_unique<Impl>(transport, world_size, config)) {
  impl_->start();
}

TelemetrySession::~TelemetrySession() { finish(); }

int TelemetrySession::metrics_port() const {
  return impl_->server ? impl_->server->port() : -1;
}

void TelemetrySession::finish() {
  if (impl_->finished.exchange(true)) return;
  if (impl_->rank == 0)
    impl_->finish_hub();
  else
    impl_->finish_worker();
}

}  // namespace peachy::mpp

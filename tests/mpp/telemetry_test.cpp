// Cluster telemetry end to end: snapshot codec round-trips, a spawned
// 4-rank world writes one merged clock-corrected trace (validated by
// scripts/trace_check.py), the live /metrics endpoint serves the
// rank-labeled rollup mid-run, a severed rank leaves a flight-recorder
// dump, and threaded worlds degrade to a single-process trace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mpp/mpp.hpp"
#include "mpp/telemetry.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"

namespace peachy::mpp {
namespace {

using namespace std::chrono_literals;

std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("peachy-telemetry-" + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TelemetryCodec, SnapshotRoundTrips) {
  std::vector<obs::MetricSample> samples(2);
  samples[0].name = "mpp.messages";
  samples[0].kind = obs::MetricSample::Kind::kCounter;
  samples[0].value = 42;
  samples[1].name = "lat";
  samples[1].kind = obs::MetricSample::Kind::kHistogram;
  samples[1].count = 3;
  samples[1].sum = 12;
  samples[1].buckets = {0, 1, 2};

  std::vector<obs::TraceEvent> events(1);
  events[0].name = "mpp.send";
  events[0].cat = "mpp";
  events[0].ph = obs::TraceEvent::Phase::kInstant;
  events[0].ts_ns = 123456789;
  events[0].tid = 7;
  events[0].args = {{"span_id", 99}, {"bytes", -1}};

  const std::vector<std::byte> wire =
      telemetry::encode_snapshot(3, samples, events);
  const telemetry::Snapshot back = telemetry::decode_snapshot(wire);

  EXPECT_EQ(back.rank, 3);
  ASSERT_EQ(back.samples.size(), 2u);
  EXPECT_EQ(back.samples[0].name, "mpp.messages");
  EXPECT_EQ(back.samples[0].value, 42);
  EXPECT_EQ(back.samples[1].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(back.samples[1].buckets, (std::vector<std::uint64_t>{0, 1, 2}));
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].name, "mpp.send");
  EXPECT_EQ(back.events[0].ph, obs::TraceEvent::Phase::kInstant);
  EXPECT_EQ(back.events[0].ts_ns, 123456789);
  EXPECT_EQ(back.events[0].tid, 7);
  ASSERT_EQ(back.events[0].args.size(), 2u);
  EXPECT_EQ(back.events[0].args[1].second, -1);
}

TEST(TelemetryCodec, TruncatedSnapshotThrows) {
  std::vector<std::byte> wire = telemetry::encode_snapshot(0, {}, {});
  wire.pop_back();
  EXPECT_THROW(telemetry::decode_snapshot(wire), Error);
}

// The traffic pattern every e2e test runs: a ring shuffle (rank r sends to
// r+1, so every rank is both sender and receiver) plus collectives.
void ring_body(Comm& comm) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  for (int round = 0; round < 5; ++round) {
    const std::int64_t v = comm.rank() * 100 + round;
    comm.send(next, 11, &v, 1);
    std::int64_t got = 0;
    comm.recv(prev, 11, &got, 1);
    EXPECT_EQ(got, prev * 100 + round);
  }
  const std::int64_t total = comm.allreduce_sum(comm.rank());
  EXPECT_EQ(total, comm.size() * (comm.size() - 1) / 2);
}

TEST(TelemetrySpawned, FourRankWorldWritesOneMergedValidTrace) {
  const auto dir = fresh_dir("trace");
  const std::string trace = (dir / "merged.json").string();

  Telemetry telemetry;
  telemetry.enabled = true;
  telemetry.interval_ms = 50;
  telemetry.trace_path = trace;

  const RunOutcome out = run_world(
      4,
      {.transport = TransportKind::kTcp, .spawn = true, .telemetry = telemetry},
      ring_body);
  EXPECT_GT(out.comm.messages_sent, 0u);
  ASSERT_TRUE(std::filesystem::exists(trace)) << trace;

  // The stdlib validator is the contract: per-track monotone timestamps,
  // every parent_span_id resolved, events from all 4 ranks.
  const std::string cmd = "python3 " PEACHY_SOURCE_DIR
                          "/scripts/trace_check.py \"" +
                          trace + "\" --min-ranks 4";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // Cross-rank causality in the raw JSON: some mpp.recv adopted a context.
  const std::string text = slurp(trace);
  EXPECT_NE(text.find("mpp.send"), std::string::npos);
  EXPECT_NE(text.find("mpp.recv"), std::string::npos);
  EXPECT_NE(text.find("parent_span_id"), std::string::npos);
  EXPECT_NE(text.find("\"rank 3\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySpawned, CheckpointWritesAppearInTheMergedTrace) {
  // Every rank commits its own file at each cut; the commit spans must
  // ship with each rank's finals.
  const auto dir = fresh_dir("ckpt-trace");
  const std::string trace = (dir / "merged.json").string();
  Telemetry telemetry;
  telemetry.enabled = true;
  telemetry.interval_ms = 50;
  telemetry.trace_path = trace;
  Resilience resilience;
  resilience.checkpoint_dir = (dir / "ckpt").string();

  run_world(4,
            {.transport = TransportKind::kTcp,
             .spawn = true,
             .resilience = resilience,
             .telemetry = telemetry},
            [](Comm& comm) {
              const std::vector<std::byte> blob(1024, std::byte{1});
              for (int cut = 0; cut < 3; ++cut) {
                comm.allreduce_sum(cut);
                comm.checkpoint(blob.data(), blob.size());
              }
            });
  ASSERT_TRUE(std::filesystem::exists(trace)) << trace;
  const std::string cmd = "python3 " PEACHY_SOURCE_DIR
                          "/scripts/trace_check.py \"" +
                          trace + "\" --min-ranks 4";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string text = slurp(trace);
  std::size_t writes = 0;
  for (std::size_t at = text.find("\"mpp.checkpoint_write\"");
       at != std::string::npos;
       at = text.find("\"mpp.checkpoint_write\"", at + 1))
    ++writes;
  EXPECT_EQ(writes, 12u);  // 4 ranks x 3 cuts
  EXPECT_NE(text.find("\"mpp.checkpoint\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySpawned, MetricsEndpointServesRankLabeledRollupMidRun) {
  const auto dir = fresh_dir("metrics");
  const std::string port_file = (dir / "port").string();

  Telemetry telemetry;
  telemetry.enabled = true;
  telemetry.interval_ms = 20;
  telemetry.metrics_port = 0;  // ephemeral; discovered via the port file
  telemetry.port_file = port_file;

  // Scraper thread: wait for rank 0 to publish its port, then GET /metrics
  // repeatedly while the world is still running, keeping the first response
  // that contains the shipped rank-1 rollup. Retrying (rather than one
  // scrape at a fixed delay) keeps the test honest under sanitizer/load
  // slowdowns — the world below holds for several seconds.
  std::string scraped;
  std::thread scraper([&] {
    int port = 0;
    for (int i = 0; i < 300 && port == 0; ++i) {
      std::this_thread::sleep_for(20ms);
      std::ifstream in(port_file);
      in >> port;
    }
    if (port == 0) return;
    const auto deadline = std::chrono::steady_clock::now() + 4s;
    while (std::chrono::steady_clock::now() < deadline) {
      std::string body;
      try {
        net::Socket s = net::Socket::connect_to("127.0.0.1", port, 3000);
        const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
        s.send_all(req.data(), req.size(), 3000);
        char buf[65536];
        for (;;) {
          const ssize_t n = s.recv_some(buf, sizeof buf);
          if (n == 0) break;
          if (n < 0) {
            std::this_thread::sleep_for(10ms);
            continue;
          }
          body.append(buf, static_cast<std::size_t>(n));
        }
      } catch (const Error&) {
      }
      if (!body.empty()) scraped = body;
      if (body.find("rank=\"1\"") != std::string::npos) return;
      std::this_thread::sleep_for(100ms);
    }
  });

  run_world(
      2,
      {.transport = TransportKind::kTcp, .spawn = true, .telemetry = telemetry},
      [](Comm& comm) {
        ring_body(comm);
        // Keep the world alive long enough for the scrape.
        std::this_thread::sleep_for(3s);
        comm.barrier();
      });
  scraper.join();

  ASSERT_NE(scraped.find("200 OK"), std::string::npos) << scraped;
  // The rollup labels rank 0's own metrics and the shipped rank-1 ones.
  EXPECT_NE(scraped.find("mpp_messages{rank=\"0\"}"), std::string::npos)
      << scraped;
  EXPECT_NE(scraped.find("mpp_messages{rank=\"1\"}"), std::string::npos)
      << scraped;
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySpawned, SeveredRankLeavesFlightRecorderDump) {
  const auto dir = fresh_dir("flight");
  ::setenv("PEACHY_FLIGHT_DIR", dir.c_str(), 1);

  Telemetry telemetry;
  telemetry.enabled = true;
  telemetry.interval_ms = 50;

  net::TcpOptions tcp;
  tcp.recv_timeout_ms = 3000;
  tcp.goodbye_timeout_ms = 300;
  // Sever mid-ring (round 4 of 5) so the failure hits application traffic,
  // not the final telemetry snapshot (whose send errors are swallowed by
  // design: telemetry must never mask a clean run's result).
  tcp.fault.sever_after = 3;

  EXPECT_THROW(run_world(2,
                         {.transport = TransportKind::kTcp,
                          .spawn = true,
                          .tcp = tcp,
                          .telemetry = telemetry},
                         ring_body),
               Error);
  ::unsetenv("PEACHY_FLIGHT_DIR");

  // At least one rank must have written a post-mortem naming its rank.
  std::vector<std::string> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    dumps.push_back(entry.path().filename().string());
  ASSERT_FALSE(dumps.empty()) << "no flight dump in " << dir;
  bool named = false, has_reason = false;
  for (const std::string& name : dumps) {
    if (name == "flight-0.json" || name == "flight-1.json") named = true;
    const std::string text = slurp(dir / name);
    if (text.find("\"reason\":") != std::string::npos &&
        text.find("\"events\":[") != std::string::npos)
      has_reason = true;
  }
  EXPECT_TRUE(named) << "dump not named after a rank";
  EXPECT_TRUE(has_reason) << "dump lacks reason/events";
  std::filesystem::remove_all(dir);
}

TEST(TelemetryThreaded, TcpWorldWritesSingleProcessTrace) {
  const auto dir = fresh_dir("threaded");
  const std::string trace = (dir / "trace.json").string();

  RunOptions options;
  options.transport = TransportKind::kTcp;
  options.telemetry.enabled = true;
  options.telemetry.trace_path = trace;

  obs::Tracer::global().clear();
  run_world(2, options, ring_body);
  ASSERT_TRUE(std::filesystem::exists(trace));
  const std::string cmd = "python3 " PEACHY_SOURCE_DIR
                          "/scripts/trace_check.py \"" +
                          trace + "\"";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_NE(slurp(trace).find("mpp.send"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace peachy::mpp

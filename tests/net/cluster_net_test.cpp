// Distributed telemetry at the wire level: trace contexts must survive a
// severed link with exactly one context per delivered message, and the
// clock-offset estimator must recover a deliberately skewed peer clock from
// PING/PONG probe traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/timer.hpp"
#include "net/rendezvous.hpp"
#include "net/socket.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/cluster.hpp"
#include "obs/obs.hpp"

namespace peachy::net {
namespace {

using namespace std::chrono_literals;
namespace cluster = peachy::obs::cluster;

/// Runs a 2-rank TcpTransport world body on two threads sharing one
/// rendezvous. Rethrows the first rank's failure.
void run_pair(const TcpOptions& opt,
              const std::function<void(TcpTransport&)>& rank0,
              const std::function<void(TcpTransport&)>& rank1) {
  RendezvousServer server(2, /*collect_results=*/false, 10000);
  server.start();
  std::exception_ptr errs[2];
  auto runner = [&](int rank, const std::function<void(TcpTransport&)>& body) {
    try {
      TcpTransport t(rank, 2, server.port(), opt);
      body(t);
      t.shutdown();
    } catch (...) {
      errs[rank] = std::current_exception();
    }
  };
  std::thread t0(runner, 0, rank0), t1(runner, 1, rank1);
  t0.join();
  t1.join();
  server.join();
  for (auto& e : errs)
    if (e) std::rethrow_exception(e);
}

TEST(ClusterNet, ContextSurvivesSeededFaults) {
  const bool was_enabled = obs::set_enabled(true);
  TcpOptions opt;
  opt.recv_timeout_ms = 15000;
  constexpr int kMessages = 60;
  constexpr int kSeverAfter = 40;
  opt.fault.sever_after = kSeverAfter;

  std::vector<MsgInfo> got;
  bool sender_saw_death = false, receiver_saw_death = false;
  run_pair(
      opt,
      [&](TcpTransport& t) {
        try {
          for (std::uint32_t i = 0; i < kMessages; ++i) {
            // One distinct context per message, like Comm::send does.
            cluster::ScopedContext ctx({777, 1000 + i});
            t.send(1, 5, &i, sizeof i);
          }
        } catch (const PeerDied&) {
          sender_saw_death = true;
        }
      },
      [&](TcpTransport& t) {
        try {
          for (int i = 0; i < kMessages; ++i) {
            MsgInfo info;
            const std::vector<std::byte> payload = t.recv(0, 5, &info);
            std::uint32_t value = 0;
            ASSERT_EQ(payload.size(), sizeof value);
            std::memcpy(&value, payload.data(), sizeof value);
            EXPECT_EQ(value, static_cast<std::uint32_t>(i));
            got.push_back(info);
          }
        } catch (const PeerDied&) {
          receiver_saw_death = true;
        }
      });

  // Every message before the sever point delivered exactly once, each with
  // exactly the context it was sent under; the cut surfaces on both ends.
  EXPECT_TRUE(sender_saw_death);
  EXPECT_TRUE(receiver_saw_death);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSeverAfter));
  std::set<std::uint64_t> spans;
  for (int i = 0; i < kSeverAfter; ++i) {
    EXPECT_TRUE(got[static_cast<std::size_t>(i)].has_ctx);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].trace_id, 777u);
    EXPECT_EQ(got[static_cast<std::size_t>(i)].span_id,
              1000u + static_cast<std::uint64_t>(i));
    spans.insert(got[static_cast<std::size_t>(i)].span_id);
  }
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kSeverAfter));
  obs::set_enabled(was_enabled);
}

TEST(ClusterNet, NoContextWhenNoneIsCurrent) {
  const bool was_enabled = obs::set_enabled(true);
  TcpOptions opt;
  MsgInfo info;
  run_pair(
      opt,
      [&](TcpTransport& t) {
        cluster::clear_current();
        const std::uint64_t v = 1;
        t.send(1, 9, &v, sizeof v);
      },
      [&](TcpTransport& t) { t.recv(0, 9, &info); });
  EXPECT_FALSE(info.has_ctx);
  obs::set_enabled(was_enabled);
}

// --- Clock sync against a fake peer with a skewed clock ---------------------

// Joins the mesh as rank 1 of 2 (rendezvous REGISTER, dial rank 0, HELLO
// handshake) — the window_test fake-peer idiom.
Socket fake_rank1_join(int rendezvous_port) {
  Socket listen = Socket::listen_on("127.0.0.1", 0, 4);
  RendezvousSession session = rendezvous_register(
      "127.0.0.1", rendezvous_port, /*rank=*/1, /*world=*/2,
      listen.local_port(), /*timeout_ms=*/5000);
  Socket s = Socket::connect_to("127.0.0.1", session.peer_ports[0], 5000);
  FrameHeader hello;
  hello.type = FrameType::kHello;
  hello.src = 1;
  hello.tag = 0;
  send_frame(s, hello);
  FrameHeader h;
  std::vector<std::byte> payload;
  PEACHY_REQUIRE(recv_frame(s, h, payload, 5000),
                 "fake peer: rank 0 closed during the handshake");
  PEACHY_REQUIRE(h.type == FrameType::kHelloAck,
                 "fake peer: expected HELLO_ACK");
  return s;
}

TEST(ClusterNet, EstimatesSkewedPeerClockFromProbes) {
  // The fake rank 1 answers clock probes with its "own clock" running a
  // fixed 25 ms ahead of ours; rank 0's estimator must report that skew.
  constexpr std::int64_t kSkewNs = 25'000'000;

  RendezvousServer server(2, /*collect_results=*/false, 10000);
  server.start();

  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    // Answer every probe until rank 0 says goodbye: under load most round
    // trips exceed 1.5x the best one and are rejected by the estimator, so
    // a fixed number of answers can leave it short of samples.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      FrameHeader h;
      std::vector<std::byte> payload;
      try {
        if (!recv_frame(s, h, payload, 500)) break;
      } catch (const Error&) {
        continue;  // poll timeout: keep waiting for the next probe
      }
      if (h.type == FrameType::kPing && payload.size() == 8) {
        // Echo the origin, answer with a skewed "peer now".
        std::vector<std::byte> reply = payload;
        append_u64(reply,
                   static_cast<std::uint64_t>(peachy::now_ns() + kSkewNs));
        FrameHeader pong;
        pong.type = FrameType::kPong;
        pong.src = 1;
        send_frame(s, pong, reply.data(), reply.size());
      } else if (h.type == FrameType::kGoodbye) {
        break;
      }
    }
    FrameHeader bye;
    bye.type = FrameType::kGoodbye;
    bye.src = 1;
    send_frame(s, bye);
  });

  TcpOptions opt;
  opt.clock_sync_ms = 20;
  TcpTransport t(0, 2, server.port(), opt);
  // Wait for the initial probe burst to be answered.
  std::map<int, TcpTransport::ClockEstimate> est;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    est = t.clock_estimates();
    if (est.count(1) && est[1].samples >= 4) break;
    std::this_thread::sleep_for(10ms);
  }
  t.shutdown();
  fake.join();
  server.join();

  ASSERT_TRUE(est.count(1)) << "no clock estimate for the fake peer";
  EXPECT_TRUE(est[1].valid);
  EXPECT_GE(est[1].samples, 4u);
  // Loopback RTT is tens of microseconds; allow a generous 2 ms of error
  // around the injected 25 ms skew.
  EXPECT_NEAR(static_cast<double>(est[1].offset_ns),
              static_cast<double>(kSkewNs), 2e6);
  EXPECT_GE(est[1].min_rtt_ns, 0);
}

}  // namespace
}  // namespace peachy::net

// Heartbeat failure detector: an idle link must carry PINGs, and a peer
// that goes silent (wedged, not closed) must be suspected and reported as
// dead — the gap EOF-based detection cannot cover.
//
// The fake peer speaks just enough of the wire protocol to join a 2-rank
// mesh (rendezvous REGISTER + HELLO/HELLO_ACK) and then misbehaves on
// purpose, which is exactly what a real TcpTransport never does.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mpp/mpp.hpp"
#include "net/rendezvous.hpp"
#include "net/socket.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"

namespace peachy::net {
namespace {

using namespace std::chrono_literals;

// Joins the mesh as rank 1 of 2: registers with the rendezvous, dials rank
// 0, and completes the HELLO handshake. Returns the connected data socket.
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

TEST(Heartbeat, PingsFlowOnAnIdleLink) {
  RendezvousServer server(2, /*collect_results=*/false, 5000);
  server.start();

  std::atomic<int> pings{0};
  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    bool said_goodbye = false;
    // Count rank 0's PINGs; after a few, say goodbye so rank 0's shutdown
    // drain completes, then keep reading until its goodbye (or EOF).
    for (;;) {
      FrameHeader h;
      std::vector<std::byte> payload;
      if (!recv_frame(s, h, payload, 5000)) break;
      if (h.type == FrameType::kPing) ++pings;
      if (h.type == FrameType::kGoodbye) break;
      if (pings >= 3 && !said_goodbye) {
        FrameHeader bye;
        bye.type = FrameType::kGoodbye;
        bye.src = 1;
        send_frame(s, bye);
        said_goodbye = true;
      }
    }
  });

  TcpOptions opt;
  opt.heartbeat_ms = 20;
  opt.suspicion_timeout_ms = 60000;  // the fake never pings back; tolerate it
  TcpTransport transport(/*rank=*/0, /*world=*/2, server.port(), opt);

  // No application traffic at all — liveness must come from heartbeats.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (transport.stats().heartbeats_sent < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_GE(transport.stats().heartbeats_sent, 3u);

  transport.shutdown();
  fake.join();
  server.join();
  EXPECT_GE(pings.load(), 3);
}

TEST(Heartbeat, SilentPeerIsSuspectedAndReportedDead) {
  RendezvousServer server(2, /*collect_results=*/false, 5000);
  server.start();

  std::atomic<bool> done{false};
  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    // Wedge: keep the connection open but never send another frame. A
    // closed socket would be caught by EOF handling; only the heartbeat
    // timer can catch this.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!done.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(10ms);
  });

  TcpOptions opt;
  opt.heartbeat_ms = 20;
  opt.suspicion_timeout_ms = 150;
  opt.recv_timeout_ms = 8000;
  TcpTransport transport(/*rank=*/0, /*world=*/2, server.port(), opt);

  std::string message;
  try {
    transport.recv(1, 7);  // the fake never sends; suspicion must fire
    ADD_FAILURE() << "recv returned from a silent peer";
  } catch (const PeerDied& e) {
    message = e.what();
  }
  done = true;
  EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
  EXPECT_NE(message.find("suspicion"), std::string::npos) << message;

  transport.shutdown();
  fake.join();
  server.join();
}

TEST(Heartbeat, EnabledHeartbeatsDoNotPerturbData) {
  // Aggressive pings interleaved with real traffic: payloads, message
  // counts and the fault plan's sever point are exactly what they are
  // without heartbeats.
  struct Run {
    int rounds = 0;  // round trips rank 0 completed
    std::int64_t sum = 0;
    bool severed = false;
  };
  const auto run = [](int heartbeat_ms, std::int64_t sever_after) {
    mpp::RunOptions opts;
    opts.transport = mpp::TransportKind::kTcp;
    opts.tcp.heartbeat_ms = heartbeat_ms;
    opts.tcp.recv_timeout_ms = 5000;
    opts.tcp.fault.sever_after = sever_after;
    Run r;
    std::atomic<int> rounds{0};
    try {
      const mpp::RunOutcome out =
          mpp::run_world(2, opts, [&](mpp::Comm& comm) {
            for (int i = 0; i < 20; ++i) {
              std::int64_t x = i;
              if (comm.rank() == 0) {
                comm.send(1, 4, &x, 1);
                comm.recv(1, 5, &x, 1);
                r.sum += x;
                ++rounds;
              } else {
                comm.recv(0, 4, &x, 1);
                x *= 2;
                comm.send(0, 5, &x, 1);
              }
            }
          });
      EXPECT_EQ(out.comm.messages_sent, 40u);
    } catch (const PeerDied&) {
      r.severed = true;
    }
    r.rounds = rounds.load();
    return r;
  };
  std::int64_t expect = 0;
  for (int i = 0; i < 20; ++i) expect += i * 2;
  for (const int heartbeat_ms : {0, 2}) {
    const Run clean = run(heartbeat_ms, -1);
    EXPECT_FALSE(clean.severed);
    EXPECT_EQ(clean.sum, expect) << "heartbeat_ms " << heartbeat_ms;
    // PINGs ride outside the data sequence space, so they never move the
    // sever point: rank 0's frame index 12 severs either way.
    const Run cut = run(heartbeat_ms, 12);
    EXPECT_TRUE(cut.severed);
    EXPECT_EQ(cut.rounds, 12) << "heartbeat_ms " << heartbeat_ms;
  }
}

}  // namespace
}  // namespace peachy::net

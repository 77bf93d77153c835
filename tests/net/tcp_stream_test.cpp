// The tcp transport's stream contract: backpressure drains instead of
// deadlocking, shutdown's bounded drain is loud about what it abandons,
// a corrupt sequence is a dead peer, and every delivered data frame
// records its one-way delivery time.
//
// The fake peer speaks just enough of the wire protocol to join a 2-rank
// mesh (rendezvous REGISTER + HELLO/HELLO_ACK) and then stalls or corrupts
// the frame stream in ways a real TcpTransport never would.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mpp/mpp.hpp"
#include "net/rendezvous.hpp"
#include "net/socket.hpp"
#include "net/tcp.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"

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

void fake_send_goodbye(const Socket& s) {
  FrameHeader h;
  h.type = FrameType::kGoodbye;
  h.src = 1;
  send_frame(s, h);
}

// Reads frames until one of type `want` arrives (skipping PINGs and other
// control traffic); fails the test on EOF.
FrameHeader fake_expect(const Socket& s, FrameType want,
                        std::vector<std::byte>* payload_out = nullptr) {
  for (;;) {
    FrameHeader h;
    std::vector<std::byte> payload;
    if (!recv_frame(s, h, payload, 5000)) {
      ADD_FAILURE() << "fake peer: EOF while waiting for frame type "
                    << static_cast<int>(want);
      return h;
    }
    if (h.type == want) {
      if (payload_out) *payload_out = std::move(payload);
      return h;
    }
  }
}

TEST(Tcp, BidirectionalBurstsDrainUnderBackpressure) {
  // Regression for a cross-rank write deadlock: both ranks push a burst
  // whose bytes far exceed the kernel socket buffers (and the outbox bound)
  // *before either receives anything*. Under blocking writes each side's
  // app thread wedged in sendmsg waiting for the other side to read, while
  // each side's reader was parked on the same write mutex and so never
  // drained its inbound socket — a circular wait with no timeout.
  // Non-blocking writes + the POLLOUT outbox keep the readers draining, so
  // the exchange must complete (and deliver intact payloads).
  mpp::RunOptions opts;
  opts.transport = mpp::TransportKind::kTcp;

  constexpr int kFrames = 6;
  constexpr std::size_t kWords = 1024 * 1024;  // 8 MiB/frame, 48 MiB/direction
  std::atomic<std::uint64_t> corrupt{0};
  mpp::run_world(2, opts, [&corrupt](mpp::Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<std::uint64_t> block(kWords);
    for (std::size_t i = 0; i < kWords; ++i)
      block[i] = (static_cast<std::uint64_t>(comm.rank()) << 56) | i;
    for (int f = 0; f < kFrames; ++f)
      comm.send(peer, 6, block.data(), block.size());
    std::uint64_t bad = 0;
    for (int f = 0; f < kFrames; ++f) {
      std::vector<std::uint64_t> got(kWords, 0);
      comm.recv(peer, 6, got.data(), got.size());
      for (std::size_t i = 0; i < kWords; ++i)
        if (got[i] != ((static_cast<std::uint64_t>(peer) << 56) | i)) ++bad;
    }
    corrupt += bad;
  });
  EXPECT_EQ(corrupt.load(), 0u);
}

TEST(Tcp, SendsNeverBlockOnAStalledSocket) {
  // The no-blocking-writes contract, pinned deterministically: the fake
  // peer joins the mesh and then reads *nothing* while the transport sends
  // 1 MiB frames — far more than the kernel socket buffers hold, yet less
  // than the outbox bound. Every send must return (the refused bytes wait
  // in the peer's outbox); blocking writes would wedge send() mid-sendmsg
  // the moment the buffers fill. Once the fake starts reading, the
  // reader's POLLOUT drain must push the queued bytes out in order and
  // shutdown() must see the fake's GOODBYE.
  RendezvousServer server(2, /*collect_results=*/false, 5000);
  server.start();

  constexpr int kFrames = 8;
  constexpr std::size_t kBytes = 1024 * 1024;
  static_assert(kFrames * kBytes < kOutboxBoundBytes);
  std::atomic<bool> sends_returned{false};
  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    // Stall: no reads until every send() has already returned.
    while (!sends_returned.load()) std::this_thread::sleep_for(1ms);
    for (std::uint64_t next = 0; next < kFrames; ++next) {
      std::vector<std::byte> payload;
      const FrameHeader h = fake_expect(s, FrameType::kData, &payload);
      EXPECT_EQ(h.seq, next);
      EXPECT_EQ(payload.size(), kBytes);
    }
    fake_expect(s, FrameType::kGoodbye);
    fake_send_goodbye(s);
  });

  TcpOptions opt;
  opt.goodbye_timeout_ms = 10000;
  TcpTransport transport(/*rank=*/0, /*world=*/2, server.port(), opt);
  std::vector<std::byte> block(kBytes, std::byte{0x5a});
  for (int i = 0; i < kFrames; ++i)
    transport.send(1, 8, block.data(), block.size());
  sends_returned = true;  // reached only if no send blocked on the socket
  transport.shutdown();
  fake.join();
  server.join();
  EXPECT_EQ(transport.stats().frames_abandoned, 0u);
  EXPECT_EQ(transport.stats().window_stalls, 0u);
}

TEST(Tcp, ShutdownDrainTimeoutSurfacesAbandonedFrames) {
  // shutdown() waits for every outbox to drain — but the drain is bounded.
  // When it expires the abandonment must be loud at the sender: the peer
  // is marked dead (further sends throw PeerDied) and stats count the
  // frames that never left the outbox. The fake reads nothing, so frames
  // beyond what the kernel buffers hold stay queued.
  RendezvousServer server(2, /*collect_results=*/false, 5000);
  server.start();

  std::atomic<bool> done{false};
  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    while (!done.load()) std::this_thread::sleep_for(1ms);
  });

  constexpr int kFrames = 12;
  constexpr std::size_t kBytes = 1024 * 1024;
  TcpOptions opt;
  opt.goodbye_timeout_ms = 150;  // short, observable drain budget
  {
    TcpTransport transport(/*rank=*/0, /*world=*/2, server.port(), opt);
    std::vector<std::byte> block(kBytes, std::byte{0x7e});
    for (int i = 0; i < kFrames; ++i)
      transport.send(1, 2, block.data(), block.size());
    transport.shutdown();  // must give up after ~150 ms, not hang or lie
    const std::uint64_t abandoned = transport.stats().frames_abandoned;
    EXPECT_GE(abandoned, 2u);  // the GOODBYE and at least one data frame
    EXPECT_LE(abandoned, static_cast<std::uint64_t>(kFrames + 1));
    EXPECT_THROW(transport.send(1, 2, block.data(), 8), PeerDied);
  }
  done = true;
  fake.join();
  server.join();
}

TEST(Tcp, SequenceGapFromAPeerIsPeerDied) {
  // TCP delivers in order or not at all, so a skipped seq can only mean a
  // corrupt stream: the frame before the gap is delivered, the one after
  // it kills the peer.
  RendezvousServer server(2, /*collect_results=*/false, 5000);
  server.start();

  std::atomic<bool> done{false};
  std::thread fake([&] {
    Socket s = fake_rank1_join(server.port());
    const auto data = [&](std::uint64_t seq, std::uint32_t value) {
      FrameHeader h;
      h.type = FrameType::kData;
      h.src = 1;
      h.tag = 5;
      h.seq = seq;
      send_frame(s, h, &value, sizeof value);
    };
    data(0, 100);
    data(2, 111);  // seq 1 never comes
    while (!done.load()) std::this_thread::sleep_for(1ms);
  });

  TcpOptions opt;
  opt.goodbye_timeout_ms = 100;
  {
    TcpTransport transport(/*rank=*/0, /*world=*/2, server.port(), opt);
    const std::vector<std::byte> first = transport.recv(1, 5);
    std::uint32_t a = 0;
    ASSERT_EQ(first.size(), sizeof a);
    std::memcpy(&a, first.data(), sizeof a);
    EXPECT_EQ(a, 100u);
    try {
      transport.recv(1, 5);
      ADD_FAILURE() << "the frame after the gap was delivered";
    } catch (const PeerDied& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("sequence gap"), std::string::npos) << msg;
      EXPECT_NE(msg.find("got seq 2, expected 1"), std::string::npos) << msg;
    }
    transport.shutdown();
  }
  done = true;
  fake.join();
  server.join();
}

TEST(Tcp, EveryDeliveredDataFrameRecordsItsDeliveryTime) {
  // net.delivery_ns is the machine model's ground truth: one observation
  // per data frame delivered, none for control frames.
  const bool was_enabled = obs::set_enabled(true);
  obs::Registry::global().reset();
  mpp::RunOptions opts;
  opts.transport = mpp::TransportKind::kTcp;
  opts.tcp.heartbeat_ms = 5;  // control frames must not be counted
  const mpp::RunOutcome out = mpp::run_world(3, opts, [](mpp::Comm& comm) {
    std::int64_t x = comm.rank();
    for (int i = 0; i < 10; ++i) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send(next, 3, &x, 1);
      comm.recv(prev, 3, &x, 1);
    }
  });
  std::uint64_t observed = 0, received = 0;
  std::int64_t total_ns = -1;
  for (const obs::MetricSample& s : obs::Registry::global().samples()) {
    if (s.name == "net.delivery_ns") {
      observed = s.count;
      total_ns = s.sum;
    }
    if (s.name == "net.frames_received")
      received = static_cast<std::uint64_t>(s.value);
  }
  obs::set_enabled(was_enabled);
  EXPECT_EQ(out.comm.messages_sent, 30u);
  EXPECT_EQ(observed, out.comm.messages_sent);
  EXPECT_EQ(received, out.comm.messages_sent);
  EXPECT_GT(total_ns, 0);  // one host, one monotonic clock
}

}  // namespace
}  // namespace peachy::net

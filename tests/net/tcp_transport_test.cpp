// TcpTransport through mpp::run_world: real loopback sockets under the
// same MPI-shaped semantics as the in-process mailboxes, plus the failure
// behaviors only a real transport has (timeouts, severed links).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mpp/mpp.hpp"
#include "net/socket.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

namespace peachy {
namespace {

mpp::RunOptions tcp_options() {
  mpp::RunOptions o;
  o.transport = mpp::TransportKind::kTcp;
  return o;
}

TEST(TcpTransport, PingPong) {
  const mpp::RunOutcome out =
      mpp::run_world(2, tcp_options(), [](mpp::Comm& comm) {
        if (comm.rank() == 0) {
          const std::int64_t x = 41;
          comm.send(1, 7, &x, 1);
          std::int64_t back = 0;
          comm.recv(1, 7, &back, 1);
          EXPECT_EQ(back, 42);
        } else {
          std::int64_t x = 0;
          comm.recv(0, 7, &x, 1);
          ++x;
          comm.send(0, 7, &x, 1);
        }
      });
  EXPECT_EQ(out.comm.messages_sent, 2u);
  EXPECT_EQ(out.comm.bytes_sent, 16u);
  EXPECT_EQ(out.net.fault_severed, 0u);
}

TEST(TcpTransport, ZeroLengthMessage) {
  mpp::run_world(2, tcp_options(), [](mpp::Comm& comm) {
    std::uint32_t dummy = 0;
    if (comm.rank() == 0) {
      comm.send(1, 1, &dummy, 0);
    } else {
      comm.recv(0, 1, &dummy, 0);
    }
  });
}

TEST(TcpTransport, LargePayloadSurvivesFraming) {
  // Bigger than any single read/write chunk the kernel is likely to do.
  const std::size_t n = 1u << 20;
  mpp::run_world(2, tcp_options(), [n](mpp::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> data(n);
      for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
      comm.send(1, 3, data.data(), n);
    } else {
      std::vector<std::uint8_t> data(n, 0);
      comm.recv(0, 3, data.data(), n);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (data[i] != static_cast<std::uint8_t>(i * 31 + 7)) ++bad;
      EXPECT_EQ(bad, 0u);
    }
  });
}

TEST(TcpTransport, ThreeRankCyclicExchangeDoesNotDeadlock) {
  // Everyone sends before anyone receives; a naive synchronous transport
  // would deadlock on the cycle 0->1->2->0.
  mpp::run_world(3, tcp_options(), [](mpp::Comm& comm) {
    const int next = (comm.rank() + 1) % 3;
    const int prev = (comm.rank() + 2) % 3;
    const std::int64_t mine = comm.rank() * 100;
    std::int64_t got = -1;
    comm.send(next, 9, &mine, 1);
    comm.recv(prev, 9, &got, 1);
    EXPECT_EQ(got, prev * 100);
  });
}

TEST(TcpTransport, SingleRankWorldSendsNothing) {
  const mpp::RunOutcome out =
      mpp::run_world(1, tcp_options(), [](mpp::Comm& comm) {
        EXPECT_TRUE(comm.allreduce_or(false) == false);
        comm.barrier();
      });
  EXPECT_EQ(out.comm.messages_sent, 0u);
}

TEST(TcpTransport, RecvTimeoutNamesTheChannel) {
  mpp::RunOptions opts = tcp_options();
  opts.tcp.recv_timeout_ms = 300;
  std::string message;
  mpp::run_world(2, opts, [&message](mpp::Comm& comm) {
    if (comm.rank() == 0) {
      std::int64_t x = 0;
      try {
        comm.recv(1, 77, &x, 1);  // never sent
        ADD_FAILURE() << "recv should have timed out";
      } catch (const Error& e) {
        message = e.what();
      }
    } else {
      // Outlive rank 0's failing recv without receiving anything (a recv
      // here would race against the same transport-wide timeout).
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
  });
  EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
  EXPECT_NE(message.find("77"), std::string::npos) << message;
}

TEST(TcpTransport, SeveredConnectionSurfacesAsPeerDied) {
  mpp::RunOptions opts = tcp_options();
  opts.tcp.fault.sever_after = 0;  // first data frame hard-closes the link
  opts.tcp.recv_timeout_ms = 5000;
  EXPECT_THROW(mpp::run_world(2, opts,
                              [](mpp::Comm& comm) {
                                std::int64_t x = comm.rank();
                                if (comm.rank() == 0) {
                                  comm.send(1, 1, &x, 1);
                                  comm.recv(1, 2, &x, 1);
                                } else {
                                  comm.recv(0, 1, &x, 1);
                                  comm.send(0, 2, &x, 1);
                                }
                              }),
               net::PeerDied);
}

TEST(TcpTransport, SeededFaultsAreDeterministic) {
  // A fault plan is a pure function of the message pattern: the same plan
  // severs the same link at the same message on every run, whatever the
  // thread scheduling.
  mpp::RunOptions opts = tcp_options();
  opts.tcp.fault.sever_after = 10;
  opts.tcp.recv_timeout_ms = 5000;
  auto severed_run = [&opts] {
    std::atomic<int> rounds{0};
    EXPECT_THROW(mpp::run_world(2, opts,
                                [&rounds](mpp::Comm& comm) {
                                  for (int i = 0; i < 25; ++i) {
                                    std::int64_t x = i;
                                    if (comm.rank() == 0) {
                                      comm.send(1, 4, &x, 1);
                                      comm.recv(1, 5, &x, 1);
                                      EXPECT_EQ(x, 3 * i);
                                      ++rounds;
                                    } else {
                                      comm.recv(0, 4, &x, 1);
                                      x *= 3;
                                      comm.send(0, 5, &x, 1);
                                    }
                                  }
                                }),
                 net::PeerDied);
    return rounds.load();
  };
  // Rank 0's 11th frame (index 10) is the sever point.
  EXPECT_EQ(severed_run(), 10);
  EXPECT_EQ(severed_run(), 10);
}

TEST(TcpTransport, DistributedSandpileMatchesInprocByteForByte) {
  const sandpile::Field initial =
      sandpile::sparse_random_pile(48, 48, 0.3, 2, 9, 1234);

  sandpile::DistributedOptions inproc;
  inproc.ranks = 3;
  inproc.halo_depth = 2;
  const sandpile::DistributedResult a =
      sandpile::stabilize_distributed(initial, inproc);

  sandpile::DistributedOptions tcp = inproc;
  tcp.run = tcp_options();
  const sandpile::DistributedResult b =
      sandpile::stabilize_distributed(initial, tcp);

  ASSERT_TRUE(a.stable);
  ASSERT_TRUE(b.stable);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.comm.messages_sent, b.comm.messages_sent);
  EXPECT_EQ(a.comm.bytes_sent, b.comm.bytes_sent);
  EXPECT_TRUE(a.field.same_interior(b.field));
}

}  // namespace
}  // namespace peachy

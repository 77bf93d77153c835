// mpp edge cases, run against BOTH transports through one parameterized
// fixture — the point of the pluggable seam is that inproc mailboxes and
// real sockets are observably identical at the Comm level.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mpp/mpp.hpp"
#include "mpp/pool.hpp"
#include "net/socket.hpp"

namespace peachy::mpp {
namespace {

class TransportSemantics : public ::testing::TestWithParam<TransportKind> {
 protected:
  RunOptions options() const {
    RunOptions o;
    o.transport = GetParam();
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportSemantics,
    ::testing::Values(TransportKind::kInproc, TransportKind::kTcp),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return std::string(to_string(info.param));
    });

TEST_P(TransportSemantics, ZeroLengthSendRecv) {
  run_world(2, options(), [](Comm& comm) {
    std::uint8_t sentinel = 0xab;  // must stay untouched by a 0-byte recv
    if (comm.rank() == 0) {
      comm.send(1, 5, &sentinel, 0);
    } else {
      comm.recv(0, 5, &sentinel, 0);
      EXPECT_EQ(sentinel, 0xab);
    }
  });
}

TEST_P(TransportSemantics, InterleavedTagsStayFifoPerChannel) {
  run_world(2, options(), [](Comm& comm) {
    constexpr int kA = 10, kB = 20;
    if (comm.rank() == 0) {
      for (std::int64_t i = 0; i < 4; ++i) {
        const std::int64_t a = 100 + i, b = 200 + i;
        comm.send(1, kA, &a, 1);
        comm.send(1, kB, &b, 1);
      }
    } else {
      // Drain channel B first: tag A's backlog must not disturb B's FIFO
      // order, and vice versa (MPI's non-overtaking rule per channel).
      for (std::int64_t i = 0; i < 4; ++i) {
        std::int64_t b = 0;
        comm.recv(0, kB, &b, 1);
        EXPECT_EQ(b, 200 + i);
      }
      for (std::int64_t i = 0; i < 4; ++i) {
        std::int64_t a = 0;
        comm.recv(0, kA, &a, 1);
        EXPECT_EQ(a, 100 + i);
      }
    }
  });
}

TEST_P(TransportSemantics, GatherWithEmptyVectors) {
  run_world(3, options(), [](Comm& comm) {
    std::vector<std::int32_t> mine;
    if (comm.rank() == 1) mine = {11, 12};
    const std::vector<std::int32_t> all = comm.gather(0, mine);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 2u);  // ranks 0 and 2 contributed nothing
      EXPECT_EQ(all[0], 11);
      EXPECT_EQ(all[1], 12);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(TransportSemantics, GatherAllEmpty) {
  run_world(3, options(), [](Comm& comm) {
    const std::vector<std::int32_t> empty;
    const std::vector<std::int32_t> all = comm.gather(0, empty);
    EXPECT_TRUE(all.empty());
  });
}

TEST_P(TransportSemantics, AllreduceOrSingleRankWorld) {
  const RunOutcome out = run_world(1, options(), [](Comm& comm) {
    EXPECT_FALSE(comm.allreduce_or(false));
    EXPECT_TRUE(comm.allreduce_or(true));
  });
  EXPECT_EQ(out.comm.messages_sent, 0u);
}

TEST_P(TransportSemantics, SendRecvExchange) {
  run_world(2, options(), [](Comm& comm) {
    const std::int64_t mine = comm.rank() + 1;
    std::int64_t theirs = 0;
    comm.sendrecv(1 - comm.rank(), 3, &mine, &theirs, 1);
    EXPECT_EQ(theirs, 2 - comm.rank());
  });
}

TEST_P(TransportSemantics, RepeatedCollectivesDoNotCrossTalk) {
  run_world(3, options(), [](Comm& comm) {
    for (std::int64_t round = 0; round < 5; ++round) {
      EXPECT_EQ(comm.allreduce_sum(round), 3 * round);
      EXPECT_EQ(comm.allreduce_max(comm.rank() + round), 2 + round);
      comm.barrier();
    }
  });
}

TEST_P(TransportSemantics, SendToBadRankNamesEverything) {
  run_world(1, options(), [](Comm& comm) {
    const std::int64_t x = 0;
    try {
      comm.send(7, 5, &x, 1);
      ADD_FAILURE() << "send to rank 7 in a 1-rank world must throw";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
      EXPECT_NE(msg.find("bad rank 7"), std::string::npos) << msg;
      EXPECT_NE(msg.find("tag 5"), std::string::npos) << msg;
    }
  });
}

TEST_P(TransportSemantics, SizeMismatchNamesTheChannel) {
  std::string message;
  try {
    run_world(2, options(), [&message](Comm& comm) {
      if (comm.rank() == 0) {
        const std::int32_t small = 1;
        comm.send(1, 6, &small, 1);
      } else {
        std::int64_t big = 0;
        comm.recv(0, 6, &big, 1);  // expects 8 bytes, gets 4
      }
    });
    FAIL() << "size mismatch must propagate";
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("size mismatch"), std::string::npos) << message;
  EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
  EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
  EXPECT_NE(message.find("tag 6"), std::string::npos) << message;
}

// Inproc goodbye: a rank that leaves (here by throwing) marks itself gone,
// so a peer blocked on it gets PeerDied instead of waiting forever. Rank 0
// waits on rank 1; rank 2 waits on rank 0 in a barrier and is released by
// rank 0's own goodbye in turn.
void fail_rank1_under_blocked_peers(Comm& comm, std::string& rank0_saw,
                                    std::mutex& mu) {
  if (comm.rank() == 1) throw Error("rank 1 gave up");
  if (comm.rank() == 0) {
    try {
      std::int64_t x = 0;
      comm.recv(1, 1, &x, 1);
    } catch (const net::PeerDied& e) {
      const std::lock_guard lock(mu);
      rank0_saw = e.what();
      throw;
    }
  }
  comm.barrier();
}

TEST(InprocGoodbye, FailedRankReleasesBlockedPeers) {
  std::mutex mu;
  std::string rank0_saw;
  try {
    run_world(3, {}, [&](Comm& comm) {
      fail_rank1_under_blocked_peers(comm, rank0_saw, mu);
    });
    FAIL() << "rank 1's failure should propagate";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 gave up");
  }
  EXPECT_NE(rank0_saw.find("rank 0: peer rank 1 died"), std::string::npos)
      << rank0_saw;
}

TEST(InprocGoodbye, PooledGangRunsAgainAfterAFailedRank) {
  RankPool pool(3);
  RunOptions options;
  options.pool = &pool;
  std::mutex mu;
  std::string rank0_saw;
  EXPECT_THROW(run_world(3, options,
                         [&](Comm& comm) {
                           fail_rank1_under_blocked_peers(comm, rank0_saw,
                                                          mu);
                         }),
               Error);
  // Every pooled thread came back, so a second gang gets the whole pool.
  EXPECT_EQ(pool.available(), 3);
  const RunOutcome out = run_world(3, options, [](Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum(comm.rank()), 3);
  });
  EXPECT_GT(out.comm.messages_sent, 0u);
}

}  // namespace
}  // namespace peachy::mpp

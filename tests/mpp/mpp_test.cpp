#include "mpp/mpp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace peachy::mpp {
namespace {

TEST(Mpp, WorldRequiresRanks) {
  for (int ranks : {0, -2})
    EXPECT_THROW(run_world(ranks, {}, [](Comm&) {}), Error);
}

TEST(Mpp, SingleRankRuns) {
  std::atomic<int> ran{0};
  run_world(1, {}, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    ++ran;
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Mpp, PointToPointRoundTrip) {
  run_world(2, {}, [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 42;
      comm.send(1, 7, &v, 1);
      int back = 0;
      comm.recv(1, 8, &back, 1);
      EXPECT_EQ(back, 43);
    } else {
      int v = 0;
      comm.recv(0, 7, &v, 1);
      const int reply = v + 1;
      comm.send(0, 8, &reply, 1);
    }
  });
}

TEST(Mpp, MessagesMatchOnSourceAndTag) {
  run_world(3, {}, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Receive tag 2 before tag 1, and from rank 2 before rank 1, to prove
      // matching is not arrival-order dependent.
      const int a = 10, b = 20, c = 30;
      comm.barrier();
      int got = 0;
      comm.recv(2, 2, &got, 1);
      EXPECT_EQ(got, 30);
      comm.recv(1, 2, &got, 1);
      EXPECT_EQ(got, 20);
      comm.recv(1, 1, &got, 1);
      EXPECT_EQ(got, 10);
      (void)a;
      (void)b;
      (void)c;
    } else if (comm.rank() == 1) {
      const int t1 = 10, t2 = 20;
      comm.send(0, 1, &t1, 1);
      comm.send(0, 2, &t2, 1);
      comm.barrier();
    } else {
      const int t2 = 30;
      comm.send(0, 2, &t2, 1);
      comm.barrier();
    }
  });
}

TEST(Mpp, FifoPerChannel) {
  run_world(2, {}, [](Comm& comm) {
    constexpr int kN = 100;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send(1, 0, &i, 1);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        comm.recv(0, 0, &v, 1);
        EXPECT_EQ(v, i);  // non-overtaking within a channel
      }
    }
  });
}

TEST(Mpp, SizeMismatchThrows) {
  EXPECT_THROW(run_world(2, {},
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             const std::int64_t v[2] = {1, 2};
                             comm.send(1, 0, v, 2);
                           } else {
                             std::int64_t v = 0;
                             comm.recv(0, 0, &v, 1);  // expects 8 bytes, gets 16
                           }
                         }),
               Error);
}

TEST(Mpp, SendRecvExchangesWithoutDeadlock) {
  run_world(2, {}, [](Comm& comm) {
    const int partner = 1 - comm.rank();
    std::vector<double> mine(64, comm.rank() + 1.0), theirs(64, 0.0);
    comm.sendrecv(partner, 3, mine.data(), theirs.data(), 64);
    for (double v : theirs) EXPECT_DOUBLE_EQ(v, partner + 1.0);
  });
}

TEST(Mpp, AllreduceSum) {
  for (int ranks : {1, 2, 3, 5, 8}) {
    run_world(ranks, {}, [ranks](Comm& comm) {
      const std::int64_t total = comm.allreduce_sum(comm.rank() + 1);
      EXPECT_EQ(total, static_cast<std::int64_t>(ranks) * (ranks + 1) / 2);
    });
  }
}

TEST(Mpp, AllreduceMax) {
  run_world(4, {}, [](Comm& comm) {
    EXPECT_EQ(comm.allreduce_max(comm.rank() * 10), 30);
    EXPECT_EQ(comm.allreduce_max(-comm.rank()), 0);
  });
}

TEST(Mpp, AllreduceOr) {
  run_world(4, {}, [](Comm& comm) {
    EXPECT_TRUE(comm.allreduce_or(comm.rank() == 2));
    EXPECT_FALSE(comm.allreduce_or(false));
  });
}

TEST(Mpp, RepeatedCollectivesStaySynchronized) {
  run_world(4, {}, [](Comm& comm) {
    for (int i = 0; i < 50; ++i) {
      const std::int64_t s = comm.allreduce_sum(i);
      EXPECT_EQ(s, 4 * i);
      comm.barrier();
      const std::int64_t m = comm.allreduce_max(comm.rank() + i);
      EXPECT_EQ(m, 3 + i);
    }
  });
}

TEST(Mpp, GatherConcatenatesInRankOrder) {
  run_world(3, {}, [](Comm& comm) {
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1,
                          comm.rank());
    const auto all = comm.gather(0, mine);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 6u);  // 1 + 2 + 3
      EXPECT_EQ(all[0], 0);
      EXPECT_EQ(all[1], 1);
      EXPECT_EQ(all[2], 1);
      EXPECT_EQ(all[3], 2);
      EXPECT_EQ(all[5], 2);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Mpp, GatherEmptyVectorsWork) {
  run_world(3, {}, [](Comm& comm) {
    std::vector<int> empty;
    const auto all = comm.gather(1, empty);
    EXPECT_TRUE(all.empty());
  });
}

TEST(Mpp, BroadcastDeliversRootData) {
  run_world(4, {}, [](Comm& comm) {
    std::vector<int> buf(8, comm.rank() == 2 ? 99 : -1);
    comm.broadcast(2, buf.data(), buf.size());
    for (int v : buf) EXPECT_EQ(v, 99);
  });
}

TEST(Mpp, BroadcastSingleRankNoop) {
  run_world(1, {}, [](Comm& comm) {
    int v = 7;
    comm.broadcast(0, &v, 1);
    EXPECT_EQ(v, 7);
  });
}

TEST(Mpp, ScatterDistributesChunks) {
  run_world(3, {}, [](Comm& comm) {
    std::vector<int> all;
    if (comm.rank() == 0)
      all = {10, 11, 20, 21, 30, 31};
    const auto mine = comm.scatter(0, all, 2);
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0], 10 * (comm.rank() + 1));
    EXPECT_EQ(mine[1], 10 * (comm.rank() + 1) + 1);
  });
}

TEST(Mpp, ScatterValidatesRootSize) {
  // Single-rank world so the throwing root cannot leave peers blocked.
  EXPECT_THROW(run_world(1, {},
                         [](Comm& comm) {
                           std::vector<int> all(3);  // not 1 * chunk
                           comm.scatter(0, all, 2);
                         }),
               Error);
}

TEST(Mpp, ScatterGatherRoundTrip) {
  run_world(4, {}, [](Comm& comm) {
    std::vector<double> all;
    if (comm.rank() == 0)
      for (int i = 0; i < 12; ++i) all.push_back(i * 1.5);
    auto mine = comm.scatter(0, all, 3);
    for (double& v : mine) v *= 2.0;
    const auto gathered = comm.gather(0, mine);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 12u);
      for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(gathered[i], i * 3.0);
    }
  });
}

TEST(Mpp, StatsCountMessagesAndBytes) {
  const CommStats total = run_world(2, {}, [](Comm& comm) {
    if (comm.rank() == 0) {
      const double v[8] = {};
      comm.send(1, 0, v, 8);
    } else {
      double v[8];
      comm.recv(0, 0, v, 8);
    }
  }).comm;
  EXPECT_EQ(total.messages_sent, 1u);
  EXPECT_EQ(total.bytes_sent, 64u);
}

TEST(Mpp, ExceptionInRankPropagates) {
  EXPECT_THROW(run_world(2, {},
                         [](Comm& comm) {
                           if (comm.rank() == 1) throw Error("rank 1 failed");
                         }),
               Error);
}

TEST(Mpp, SendToBadRankThrows) {
  EXPECT_THROW(run_world(2, {},
                         [](Comm& comm) {
                           if (comm.rank() == 0) {
                             int v = 0;
                             comm.send(5, 0, &v, 1);
                           }
                         }),
               Error);
}

}  // namespace
}  // namespace peachy::mpp

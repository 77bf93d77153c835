// Fault plans: when a link is severed must be a pure function of the plan
// and the frame index — the property the reproducible fault tests lean on —
// and the plan must survive the environment round trip into exec'd
// workers.
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/error.hpp"
#include "mpp/mpp.hpp"

namespace peachy::net {
namespace {

// The first frame index (of `n`) the plan severs at; -1 when none.
int first_sever(const FaultPlan& plan, int n = 200) {
  for (int i = 0; i < n; ++i)
    if (plan.severs(static_cast<std::uint64_t>(i))) return i;
  return -1;
}

TEST(Fault, InactiveByDefault) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_EQ(first_sever(plan), -1);
  plan.sever_after = 0;
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(first_sever(plan), 0);
}

TEST(Fault, SeededDecisionsAreDeterministic) {
  FaultPlan a, b;
  a.sever_after = b.sever_after = 17;
  for (std::uint64_t i = 0; i < 200; ++i)
    EXPECT_EQ(a.severs(i), b.severs(i)) << "frame " << i;
}

TEST(Fault, DirectionsAreIndependentStreams) {
  // Each direction of a link counts its own data frames: rank 1's replies
  // do not move rank 0's sever point, and the link is severed once.
  mpp::RunOptions opts;
  opts.transport = mpp::TransportKind::kTcp;
  opts.tcp.recv_timeout_ms = 5000;
  opts.tcp.fault.sever_after = 3;
  std::atomic<int> sent{0};
  EXPECT_THROW(mpp::run_world(2, opts,
                              [&sent](mpp::Comm& comm) {
                                std::int64_t x = 0;
                                if (comm.rank() == 0) {
                                  // Two frames each way: four on the link,
                                  // but only two per direction.
                                  for (int i = 0; i < 2; ++i) {
                                    comm.send(1, 1, &x, 1);
                                    comm.recv(1, 2, &x, 1);
                                    ++sent;
                                  }
                                  for (int i = 0; i < 3; ++i) {
                                    comm.send(1, 1, &x, 1);
                                    ++sent;
                                  }
                                } else {
                                  for (int i = 0; i < 2; ++i) {
                                    comm.recv(0, 1, &x, 1);
                                    comm.send(0, 2, &x, 1);
                                  }
                                  for (int i = 0; i < 3; ++i)
                                    comm.recv(0, 1, &x, 1);
                                }
                              }),
               PeerDied);
  EXPECT_EQ(sent.load(), 3);  // frame index 3 of 0 -> 1 is the cut
}

TEST(Fault, DifferentSeverPointsDiffer) {
  FaultPlan a, b;
  a.sever_after = 5;
  b.sever_after = 9;
  EXPECT_EQ(first_sever(a), 5);
  EXPECT_EQ(first_sever(b), 9);
}

TEST(Fault, SeverAfterFiresExactlyOnce) {
  // The first frame at the sever point cuts the link; the transport throws
  // PeerDied for every later send without judging it again.
  FaultPlan plan;
  plan.sever_after = 3;
  EXPECT_EQ(first_sever(plan, 10), 3);
  for (std::uint64_t i = 3; i < 10; ++i) EXPECT_TRUE(plan.severs(i));
}

TEST(Fault, PlanEncodeDecodeRoundTrip) {
  for (const std::int64_t sever_after : {-1, 0, 42, 1'000'000'007}) {
    FaultPlan plan;
    plan.sever_after = sever_after;
    const FaultPlan back = FaultPlan::decode(plan.encode());
    EXPECT_EQ(back.sever_after, plan.sever_after);
    // A run must see the same faults after the env round trip.
    EXPECT_EQ(first_sever(back), first_sever(plan));
  }
}

// --- Decode hardening: a fault plan travels through an environment
// variable into exec'd workers, so a corrupted encoding must fail loudly
// (clear error naming the input) instead of silently disabling faults.

void expect_bad_plan(const std::string& text) {
  try {
    FaultPlan::decode(text);
    FAIL() << "decode accepted \"" << text << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad fault plan encoding"),
              std::string::npos)
        << e.what();
  }
}

TEST(Fault, DecodeRejectsTruncatedEncodings) {
  expect_bad_plan("");
  expect_bad_plan("-");
  expect_bad_plan("12:");  // v2's ':'-separated fields
  expect_bad_plan("12:0.5:0.5:0.5:2:3");
}

TEST(Fault, DecodeRejectsCorruptFields) {
  expect_bad_plan("abc");
  expect_bad_plan("12x");   // trailing garbage
  expect_bad_plan(" 12");   // leading garbage
  expect_bad_plan("1.5");
  expect_bad_plan("99999999999999999999");  // overflows int64
}

TEST(Fault, DecodeRejectsOutOfRangeValues) {
  expect_bad_plan("-2");  // sever_after below -1
  expect_bad_plan("-9223372036854775808");
}

TEST(Fault, DecodeAcceptsBoundaryValues) {
  EXPECT_EQ(FaultPlan::decode("-1").sever_after, -1);
  EXPECT_FALSE(FaultPlan::decode("-1").active());
  EXPECT_EQ(FaultPlan::decode("0").sever_after, 0);
  EXPECT_EQ(FaultPlan::decode("9223372036854775807").sever_after,
            9223372036854775807LL);
}

}  // namespace
}  // namespace peachy::net

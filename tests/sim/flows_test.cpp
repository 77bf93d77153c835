#include "sim/flows.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"

namespace peachy::sim {
namespace {

constexpr double kBw = 125e6;  // 1 Gbit/s

struct Done {
  int count = 0;
  Time at = -1.0;
};

std::function<void()> record(Engine& e, Done& d) {
  return [&e, &d] {
    ++d.count;
    d.at = e.now();
  };
}

TEST(FlowSet, LoneFlowTakesLatencyPlusBytesOverBandwidth) {
  Engine e;
  FlowSet flows(e, Sharing::kFairShare);
  const int edge = flows.add_edge(kBw);
  Done d;
  flows.start({edge}, 125e6, 0.01, record(e, d));
  e.run();
  EXPECT_EQ(d.count, 1);
  EXPECT_DOUBLE_EQ(d.at, 1.01);
  EXPECT_DOUBLE_EQ(flows.bytes(edge), 125e6);
  EXPECT_DOUBLE_EQ(flows.busy_s(edge), 1.0);  // latency is not occupancy
}

TEST(FlowSet, JoiningFlowHalvesTheRate) {
  // A streams alone for 0.5 s (62.5 MB), then shares with B: its last
  // 62.5 MB at 62.5 MB/s ends at 1.5 s. B has 62.5 MB left then and
  // finishes alone at 2.0 s.
  Engine e;
  FlowSet flows(e, Sharing::kFairShare);
  const int edge = flows.add_edge(kBw);
  Done a, b;
  flows.start({edge}, 125e6, 0.0, record(e, a));
  e.schedule_at(0.5, [&] { flows.start({edge}, 125e6, 0.0, record(e, b)); });
  e.run();
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
  EXPECT_DOUBLE_EQ(a.at, 1.5);
  EXPECT_DOUBLE_EQ(b.at, 2.0);
  EXPECT_DOUBLE_EQ(flows.busy_s(edge), 2.0);
  EXPECT_DOUBLE_EQ(flows.bytes(edge), 250e6);
}

TEST(FlowSet, FlowWithMicrobyteResidueNearT370CompletesExactlyOnce) {
  // A and B share the edge from t = 370 s; B carries 1.013e-6 B more. When
  // A completes at 371 s, B's advanced remainder is ~1.013e-6 B, and at the
  // full rate its completion lies 8.1e-15 s ahead: less than half an ulp of
  // 371 s, so the event lands at now. A residual-byte test ("done when
  // remaining <= 1e-6") rescheduled that event at the same instant forever.
  // Here B completes when its own current event fires. B's event from the
  // 370 s reshare also fires at 371 s, after A's, and must be ignored as
  // stale (so must A's first event at 370.5 s, from before B joined).
  Engine e;
  FlowSet flows(e, Sharing::kFairShare);
  const int edge = flows.add_edge(kBw);
  const double x = 62.5e6;
  Done a, b;
  e.schedule_at(370.0, [&] {
    flows.start({edge}, x, 0.0, record(e, a));
    flows.start({edge}, x + 1.013e-6, 0.0, record(e, b));
  });
  e.run();
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
  EXPECT_EQ(a.at, 371.0);
  EXPECT_EQ(b.at, 371.0);
  EXPECT_EQ(e.now(), 371.0);
  EXPECT_DOUBLE_EQ(flows.busy_s(edge), 1.0);
}

TEST(FlowSet, RateIsTheMinimumOverTheRoute) {
  // Edge 0 (1 GB/s) carries A alone; edge 1 (0.5 GB/s) carries A and B.
  // A's rate is min(1e9 / 1, 0.5e9 / 2) = 0.25 GB/s, as is B's.
  Engine e;
  FlowSet flows(e, Sharing::kFairShare);
  const int wide = flows.add_edge(1e9);
  const int narrow = flows.add_edge(0.5e9);
  Done a, b;
  flows.start({wide, narrow}, 0.25e9, 0.0, record(e, a));
  flows.start({narrow}, 0.25e9, 0.0, record(e, b));
  e.run();
  EXPECT_DOUBLE_EQ(a.at, 1.0);
  EXPECT_DOUBLE_EQ(b.at, 1.0);
  EXPECT_DOUBLE_EQ(flows.bytes(wide), 0.25e9);
  EXPECT_DOUBLE_EQ(flows.bytes(narrow), 0.5e9);
}

TEST(FlowSet, EmptyRoutesAndZeroBytesPayLatencyOnly) {
  Engine e;
  FlowSet flows(e, Sharing::kFifo);
  const int edge = flows.add_edge(kBw);
  Done none, zero;
  flows.start({}, 1e9, 0.25, record(e, none));
  flows.start({edge}, 0.0, 0.5, record(e, zero));
  e.run();
  EXPECT_DOUBLE_EQ(none.at, 0.25);
  EXPECT_DOUBLE_EQ(zero.at, 0.5);
  EXPECT_EQ(flows.busy_s(edge), 0.0);
  EXPECT_EQ(flows.bytes(edge), 0.0);
}

TEST(FlowSet, FifoCompletionIsStartPlusLatencyPlusTransferBitForBit) {
  Engine e;
  FlowSet flows(e, Sharing::kFifo);
  const int edge = flows.add_edge(kBw);
  const double lat = 0.01;
  const double b1 = 1.234e6;
  const double b2 = 7.77e5;
  Done first, second;
  e.schedule_at(370.1, [&] {
    flows.start({edge}, b1, lat, record(e, first));
    flows.start({edge}, b2, lat, record(e, second));
  });
  e.run();
  const double d1 = lat + b1 / kBw;
  const double d2 = lat + b2 / kBw;
  EXPECT_EQ(first.at, 370.1 + d1);
  EXPECT_EQ(second.at, (370.1 + d1) + d2);  // waits for the first
  EXPECT_EQ(flows.busy_s(edge), d1 + d2);    // latency counts as occupancy
  EXPECT_EQ(flows.bytes(edge), b1 + b2);
  EXPECT_EQ(e.processed(), 3u);  // the start event + one per flow
}

TEST(FlowSet, FifoFlowStartedFromACallbackQueuesBehindWaitingOnes) {
  Engine e;
  FlowSet flows(e, Sharing::kFifo);
  const int edge = flows.add_edge(1.0);
  std::vector<char> order;
  flows.start({edge}, 1.0, 0.0, [&] {
    order.push_back('a');
    flows.start({edge}, 1.0, 0.0, [&] { order.push_back('c'); });
  });
  flows.start({edge}, 1.0, 0.0, [&] { order.push_back('b'); });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(FlowSet, RejectsBadEdgesAndMultiEdgeFifoRoutes) {
  Engine e;
  FlowSet fifo(e, Sharing::kFifo);
  EXPECT_THROW(fifo.add_edge(0.0), Error);
  const int a = fifo.add_edge(1.0);
  const int b = fifo.add_edge(1.0);
  EXPECT_THROW(fifo.start({a, b}, 1.0, 0.0, [] {}), Error);
  EXPECT_THROW(fifo.start({7}, 1.0, 0.0, [] {}), Error);
  EXPECT_THROW(fifo.busy_s(-1), Error);
  FlowSet fair(e, Sharing::kFairShare);
  EXPECT_THROW(fair.start({0}, 1.0, 0.0, [] {}), Error);  // no edges yet
}

}  // namespace
}  // namespace peachy::sim

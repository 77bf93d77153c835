// Data flows sharing edge bandwidth: the network model of both simulators
// (wfsim's cluster<->cloud link, machine::simulate's routes). Routes with no
// edges and zero-byte flows pay their latency only and never enter the set.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/engine.hpp"

namespace peachy::sim {

/// How concurrent flows share an edge (DESIGN.md "Contention rules").
enum class Sharing {
  /// Store-and-forward on one-edge routes: one flow holds the edge at a
  /// time, in start order, for latency + bytes / bandwidth.
  kFifo,
  /// SimGrid-style progressive fair share: a flow joins after its latency;
  /// at every change of the active set each rate becomes the minimum over
  /// the flow's edges of bandwidth / active flows, and each flow completes
  /// when its own epoch-stamped event fires (no residual-byte test).
  kFairShare,
};

/// Flows over dense edge ids, timed on one Engine.
class FlowSet {
 public:
  FlowSet(Engine& engine, Sharing sharing)
      : engine_(engine), sharing_(sharing) {}
  FlowSet(const FlowSet&) = delete;  // scheduled events hold `this`
  FlowSet& operator=(const FlowSet&) = delete;

  /// Adds an edge; ids are 0, 1, 2, ... in call order.
  int add_edge(double bytes_per_s);
  /// Moves `bytes` over `edges` from now on; `on_done` runs when the last
  /// byte lands. Throws peachy::Error on a bad edge id, or on a route of
  /// more than one edge under kFifo.
  void start(const std::vector<int>& edges, double bytes, Time latency_s,
             std::function<void()> on_done);
  /// Bytes the edge delivered.
  double bytes(int edge) const { return at(edge).bytes; }
  /// Occupied time: under kFairShare the wall time with at least one active
  /// flow, under kFifo the sum of its flows' latency + bytes / bandwidth.
  double busy_s(int edge) const { return at(edge).busy_s; }

 private:
  struct Flow {
    std::vector<int> edges;  // kFairShare
    double bytes = 0.0;
    Time latency_s = 0.0;
    double remaining = 0.0;
    double rate = 0.0;
    Time last_update = 0.0;
    std::function<void()> on_done;
  };
  struct Edge {
    double bytes_per_s = 0.0;
    double bytes = 0.0;
    double busy_s = 0.0;
    int active = 0;          // kFairShare: flows on the edge
    Time busy_since = 0.0;   // kFairShare: valid while active > 0
    std::deque<Flow> queue;  // kFifo: the front holds the edge
  };

  const Edge& at(int edge) const;
  void join(int flow);
  void complete(int flow);
  void reshare();
  void hold(int edge);
  void release(int edge);

  Engine& engine_;
  Sharing sharing_;
  std::vector<Edge> edges_;
  std::vector<Flow> flows_;  // kFairShare, by id
  std::vector<int> active_;  // kFairShare: ids in join order
  std::uint64_t epoch_ = 0;
};

}  // namespace peachy::sim

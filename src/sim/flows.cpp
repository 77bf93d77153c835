#include "sim/flows.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/error.hpp"

namespace peachy::sim {

int FlowSet::add_edge(double bytes_per_s) {
  PEACHY_REQUIRE(bytes_per_s > 0.0,
                 "edge bandwidth must be positive, got " << bytes_per_s);
  edges_.emplace_back().bytes_per_s = bytes_per_s;
  return static_cast<int>(edges_.size()) - 1;
}

const FlowSet::Edge& FlowSet::at(int edge) const {
  PEACHY_REQUIRE(edge >= 0 && edge < static_cast<int>(edges_.size()),
                 "edge " << edge << " out of [0," << edges_.size() << ")");
  return edges_[static_cast<std::size_t>(edge)];
}

void FlowSet::start(const std::vector<int>& edges, double bytes,
                    Time latency_s, std::function<void()> on_done) {
  for (int e : edges) at(e);
  if (edges.empty() || bytes <= 0.0) {
    engine_.schedule_in(latency_s, std::move(on_done));
    return;
  }
  Flow f{{}, bytes, latency_s, bytes, 0.0, 0.0, std::move(on_done)};
  if (sharing_ == Sharing::kFifo) {
    PEACHY_REQUIRE(edges.size() == 1, "FIFO sharing needs one-edge routes, got "
                                          << edges.size() << " edges");
    std::deque<Flow>& queue =
        edges_[static_cast<std::size_t>(edges.front())].queue;
    queue.push_back(std::move(f));
    if (queue.size() == 1) hold(edges.front());
    return;
  }
  f.edges = edges;
  flows_.push_back(std::move(f));
  const int id = static_cast<int>(flows_.size()) - 1;
  engine_.schedule_in(latency_s, [this, id] { join(id); });
}

void FlowSet::join(int flow) {
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  f.last_update = engine_.now();
  for (int e : f.edges) {
    Edge& edge = edges_[static_cast<std::size_t>(e)];
    if (edge.active++ == 0) edge.busy_since = engine_.now();
  }
  active_.push_back(flow);
  reshare();
}

void FlowSet::complete(int flow) {
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  for (int e : f.edges) {
    Edge& edge = edges_[static_cast<std::size_t>(e)];
    edge.bytes += f.bytes;
    if (--edge.active == 0) edge.busy_s += engine_.now() - edge.busy_since;
  }
  active_.erase(std::find(active_.begin(), active_.end(), flow));
  // Moved out first: a flow the callback starts may grow flows_.
  std::function<void()> on_done = std::move(f.on_done);
  on_done();
  reshare();
}

// The fair-share step: advance every active flow to now, re-derive its rate
// from current edge occupancy and stamp a fresh completion event; events
// from earlier steps carry an older stamp and do nothing.
void FlowSet::reshare() {
  const Time now = engine_.now();
  const std::uint64_t stamp = ++epoch_;
  for (int id : active_) {
    Flow& f = flows_[static_cast<std::size_t>(id)];
    f.remaining = std::max(0.0, f.remaining - f.rate * (now - f.last_update));
    f.last_update = now;
    f.rate = std::numeric_limits<double>::infinity();
    for (int e : f.edges) {
      const Edge& edge = edges_[static_cast<std::size_t>(e)];
      f.rate = std::min(f.rate, edge.bytes_per_s / edge.active);
    }
    engine_.schedule_in(f.remaining / f.rate, [this, id, stamp] {
      if (stamp == epoch_) complete(id);
    });
  }
}

// kFifo: the flow at the front of the edge's queue takes the edge. One
// event of latency + bytes / bandwidth per flow.
void FlowSet::hold(int edge) {
  Edge& e = edges_[static_cast<std::size_t>(edge)];
  const Flow& f = e.queue.front();
  const Time duration = f.latency_s + f.bytes / e.bytes_per_s;
  e.busy_s += duration;
  engine_.schedule_in(duration, [this, edge] { release(edge); });
}

// The edge stays held through on_done, so a flow the callback starts queues
// behind the ones already waiting.
void FlowSet::release(int edge) {
  const auto ei = static_cast<std::size_t>(edge);
  Flow& f = edges_[ei].queue.front();
  edges_[ei].bytes += f.bytes;
  std::function<void()> on_done = std::move(f.on_done);
  on_done();
  std::deque<Flow>& queue = edges_[ei].queue;
  queue.pop_front();
  if (!queue.empty()) hold(edge);
}

}  // namespace peachy::sim

#include "machine/simulate.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "core/error.hpp"
#include "sim/engine.hpp"
#include "sim/flows.hpp"

namespace peachy::machine {
namespace {

constexpr double kGiga = 1e9;

class Simulation {
 public:
  Simulation(const Machine& m, const Dag& dag) : m_(m), dag_(dag) {}

  Report run() {
    validate();
    const std::size_t nt = dag_.tasks.size();
    const std::size_t nx = dag_.transfers.size();
    pending_.assign(nt, 0);
    finished_.assign(nt, false);
    report_.task_start_s.assign(nt, -1.0);
    report_.task_finish_s.assign(nt, -1.0);
    report_.transfer_start_s.assign(nx, -1.0);
    report_.transfer_finish_s.assign(nx, -1.0);

    route_edges_.resize(nx);
    out_transfers_.assign(nt, {});
    dependents_.assign(nt, {});
    for (std::size_t i = 0; i < nx; ++i) {
      const Transfer& x = dag_.transfers[static_cast<std::size_t>(i)];
      const Route r = route(m_, dag_.tasks[static_cast<std::size_t>(x.src)].core,
                            dag_.tasks[static_cast<std::size_t>(x.dst)].core);
      route_latency_s_.push_back(r.latency_s);
      // Intern each edge to a dense flow-set id. Zero-byte transfers never
      // load an edge, so they do not put it in the report either.
      if (x.bytes > 0.0)
        for (const EdgeRef& e : r.edges) {
          const auto [it, fresh] = edge_ids_.try_emplace(e, 0);
          if (fresh) it->second = flows_.add_edge(edge_spec(m_, e).bytes_per_s);
          route_edges_[i].push_back(it->second);
        }
      out_transfers_[static_cast<std::size_t>(x.src)].push_back(
          static_cast<int>(i));
      ++pending_[static_cast<std::size_t>(x.dst)];
    }
    for (std::size_t t = 0; t < nt; ++t) {
      for (int d : dag_.tasks[t].deps) {
        dependents_[static_cast<std::size_t>(d)].push_back(static_cast<int>(t));
        ++pending_[t];
      }
    }
    for (std::size_t t = 0; t < nt; ++t)
      if (pending_[t] == 0) ready(static_cast<int>(t));

    engine_.run();

    for (std::size_t t = 0; t < nt; ++t)
      PEACHY_REQUIRE(finished_[t],
                     "task " << t << " never became ready — cyclic or "
                                     "unsatisfiable dependencies");
    for (const auto& [edge, id] : edge_ids_)
      report_.edges.push_back({edge, flows_.bytes(id), flows_.busy_s(id)});
    for (double f : report_.task_finish_s)
      report_.makespan_s = std::max(report_.makespan_s, f);
    for (double f : report_.transfer_finish_s)
      report_.makespan_s = std::max(report_.makespan_s, f);
    return std::move(report_);
  }

 private:
  using CoreKey = std::tuple<int, int, int, int>;

  static CoreKey key(const CoreId& c) {
    return {c.group, c.node, c.socket, c.core};
  }

  void validate() const {
    m_.validate();
    const int nt = static_cast<int>(dag_.tasks.size());
    for (const Task& t : dag_.tasks) {
      PEACHY_REQUIRE(t.flops >= 0.0, "task flops must be non-negative");
      check_core(m_, t.core);
      for (int d : t.deps)
        PEACHY_REQUIRE(d >= 0 && d < nt, "task dep " << d << " out of range");
    }
    for (const Transfer& x : dag_.transfers) {
      PEACHY_REQUIRE(x.src >= 0 && x.src < nt,
                     "transfer src " << x.src << " out of range");
      PEACHY_REQUIRE(x.dst >= 0 && x.dst < nt,
                     "transfer dst " << x.dst << " out of range");
      PEACHY_REQUIRE(x.src != x.dst, "transfer src == dst");
      PEACHY_REQUIRE(x.bytes >= 0.0, "transfer bytes must be non-negative");
    }
  }

  // Task `t` has all inputs; queue it FIFO on its core.
  void ready(int t) {
    const Task& task = dag_.tasks[static_cast<std::size_t>(t)];
    const NodeGroup& g = m_.groups[static_cast<std::size_t>(task.core.group)];
    double& free_at = core_free_[key(task.core)];
    const double start = std::max(engine_.now(), free_at);
    const double dur = task.flops / (g.gflops_at() * kGiga);
    free_at = start + dur;
    report_.task_start_s[static_cast<std::size_t>(t)] = start;
    engine_.schedule_at(start + dur, [this, t] { finish_task(t); });
  }

  void finish_task(int t) {
    finished_[static_cast<std::size_t>(t)] = true;
    report_.task_finish_s[static_cast<std::size_t>(t)] = engine_.now();
    for (int d : dependents_[static_cast<std::size_t>(t)])
      if (--pending_[static_cast<std::size_t>(d)] == 0) ready(d);
    for (int x : out_transfers_[static_cast<std::size_t>(t)]) start_transfer(x);
  }

  // Same-core (or empty) transfers pay the route latency only; zero-byte
  // transfers are pure latency signals.
  void start_transfer(int x) {
    const auto i = static_cast<std::size_t>(x);
    report_.transfer_start_s[i] = engine_.now();
    flows_.start(route_edges_[i], dag_.transfers[i].bytes, route_latency_s_[i],
                 [this, x] { finish_transfer(x); });
  }

  void finish_transfer(int x) {
    const Transfer& t = dag_.transfers[static_cast<std::size_t>(x)];
    report_.transfer_finish_s[static_cast<std::size_t>(x)] = engine_.now();
    if (--pending_[static_cast<std::size_t>(t.dst)] == 0) ready(t.dst);
  }

  const Machine& m_;
  const Dag& dag_;
  sim::Engine engine_;
  sim::FlowSet flows_{engine_, sim::Sharing::kFairShare};
  Report report_;

  std::vector<int> pending_;
  std::vector<char> finished_;
  std::vector<std::vector<int>> dependents_;
  std::vector<std::vector<int>> out_transfers_;
  std::vector<std::vector<int>> route_edges_;  // flow-set edge ids
  std::vector<double> route_latency_s_;
  std::map<CoreKey, double> core_free_;
  std::map<EdgeRef, int> edge_ids_;
};

}  // namespace

Report simulate(const Machine& m, const Dag& dag) {
  return Simulation(m, dag).run();
}

}  // namespace peachy::machine

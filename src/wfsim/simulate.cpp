#include "wfsim/simulate.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace peachy::wf {

Placement Placement::all(const Workflow& wf, Site site) {
  Placement p;
  p.sites_.assign(static_cast<std::size_t>(wf.num_tasks()), site);
  return p;
}

Placement Placement::level_fractions(const Workflow& wf,
                                     const std::vector<double>& fractions) {
  Placement p = all(wf, Site::kCluster);
  for (int level = 0; level < wf.num_levels(); ++level) {
    const double f = level < static_cast<int>(fractions.size())
                         ? fractions[static_cast<std::size_t>(level)]
                         : 0.0;
    PEACHY_REQUIRE(f >= 0.0 && f <= 1.0,
                   "cloud fraction " << f << " out of [0,1] at level " << level);
    const auto& ids = wf.tasks_in_level(level);
    const auto cutoff = static_cast<std::size_t>(
        std::llround(f * static_cast<double>(ids.size())));
    for (std::size_t i = 0; i < cutoff; ++i) p.set(ids[i], Site::kCloud);
  }
  return p;
}

int Placement::cloud_task_count() const {
  int n = 0;
  for (Site s : sites_)
    if (s == Site::kCloud) ++n;
  return n;
}

namespace {

/// Whole mutable state of one simulation.
struct SimState {
  SimState(const Workflow& w, const Platform& p, const RunConfig& c)
      : wf(&w), plat(&p), cfg(c), flows(engine, p.link.sharing),
        link{flows.add_edge(p.link.bytes_per_s)} {}

  const Workflow* wf;
  const Platform* plat;
  RunConfig cfg;
  sim::Engine engine;
  sim::FlowSet flows;
  std::vector<int> link;  // the cluster<->cloud link: the one-edge route

  // File presence per site, and in-flight transfer tracking.
  // present[site][file], inflight[site][file] -> tasks waiting for it.
  std::vector<std::vector<bool>> present;
  std::vector<std::vector<bool>> inflight;

  // Per-task progress.
  std::vector<int> missing_parents;
  std::vector<int> missing_inputs;  // inputs not yet present at my site
  std::vector<bool> dispatched;

  // Per-site free executors and FIFO ready queues (ordered by task id for
  // determinism).
  // Cluster nodes are individual (possibly heterogeneous): free nodes are
  // kept ordered fastest-first so dispatch grabs the quickest one.
  std::vector<double> node_gflops;      // speed per powered-on node
  std::vector<double> node_busy_watts;  // draw per node while computing
  std::vector<double> node_busy_s;      // accumulated busy time per node
  std::set<std::pair<double, int>, std::greater<>> free_nodes;  // (speed, id)
  std::vector<int> task_node;           // node running each task (-1)
  int free_vms = 0;
  std::set<int> ready_cluster;
  std::set<int> ready_cloud;

  // Accounting.
  SimResult result;
  int tasks_done = 0;
  double last_done_s = 0;  // not engine.now(): stale flow events fire late

  double vm_speed() const { return plat->cloud.vm_gflops * 1e9; }

  static int site_index(Site s) { return s == Site::kCluster ? 0 : 1; }

  Site site_of(int task) const { return cfg.placement.site_of(task); }

  void on_task_ready(int task);
  void try_dispatch();
  void start_task(int task);
  void request_inputs(int task);
  void on_transfer_done(int file, int dest);
  void on_task_done(int task);
};

void SimState::on_task_ready(int task) {
  if (site_of(task) == Site::kCluster)
    ready_cluster.insert(task);
  else
    ready_cloud.insert(task);
  try_dispatch();
}

void SimState::try_dispatch() {
  while (!free_nodes.empty() && !ready_cluster.empty()) {
    const int task = *ready_cluster.begin();
    ready_cluster.erase(ready_cluster.begin());
    const auto fastest = *free_nodes.begin();
    free_nodes.erase(free_nodes.begin());
    task_node[static_cast<std::size_t>(task)] = fastest.second;
    request_inputs(task);
  }
  while (free_vms > 0 && !ready_cloud.empty()) {
    const int task = *ready_cloud.begin();
    ready_cloud.erase(ready_cloud.begin());
    --free_vms;
    request_inputs(task);
  }
}

// Executor already reserved; count missing inputs and start their transfers.
void SimState::request_inputs(int task) {
  const int si = site_index(site_of(task));
  int missing = 0;
  for (int fid : wf->task(task).inputs) {
    const auto f = static_cast<std::size_t>(fid);
    if (present[static_cast<std::size_t>(si)][f]) continue;
    ++missing;
    if (!inflight[static_cast<std::size_t>(si)][f]) {
      inflight[static_cast<std::size_t>(si)][f] = true;
      const double bytes = wf->file(fid).bytes;
      result.transferred_bytes += bytes;
      ++result.transfers;
      flows.start(link, bytes, plat->link.latency_s,
                  [this, fid, si] { on_transfer_done(fid, si); });
    }
  }
  missing_inputs[static_cast<std::size_t>(task)] = missing;
  if (missing == 0) start_task(task);
}

void SimState::on_transfer_done(int file, int dest) {
  const auto f = static_cast<std::size_t>(file);
  present[static_cast<std::size_t>(dest)][f] = true;
  inflight[static_cast<std::size_t>(dest)][f] = false;

  // Wake dispatched tasks at `dest` waiting on this file.
  for (int consumer : wf->file(file).consumers) {
    const auto c = static_cast<std::size_t>(consumer);
    if (!dispatched[c] && missing_inputs[c] > 0 &&
        site_index(site_of(consumer)) == dest) {
      if (--missing_inputs[c] == 0) start_task(consumer);
    }
  }
}

void SimState::start_task(int task) {
  const auto t = static_cast<std::size_t>(task);
  PEACHY_CHECK(!dispatched[t]);
  dispatched[t] = true;
  const Site site = site_of(task);
  double speed = vm_speed();
  if (site == Site::kCluster) {
    const int node = task_node[t];
    PEACHY_CHECK(node >= 0);
    speed = node_gflops[static_cast<std::size_t>(node)] * 1e9;
  }
  const double duration = wf->task(task).flops / speed;
  if (site == Site::kCluster) {
    result.cluster_busy_node_s += duration;
    node_busy_s[static_cast<std::size_t>(task_node[t])] += duration;
    ++result.tasks_on_cluster;
  } else {
    result.cloud_busy_vm_s += duration;
    ++result.tasks_on_cloud;
  }
  if (obs::enabled()) {
    // Task lifecycle: wall timestamps order events; sim-time lives in args
    // (milliseconds, since trace args are integral).
    obs::Tracer::global().instant(
        "wf.task_start", "wfsim",
        {{"task", task},
         {"site", site == Site::kCluster ? 0 : 1},
         {"sim_ms", static_cast<std::int64_t>(engine.now() * 1e3)}});
    obs::Registry::global()
        .counter(site == Site::kCluster ? "wfsim.tasks_cluster"
                                        : "wfsim.tasks_cloud")
        .add(1);
  }
  engine.schedule_in(duration, [this, task] { on_task_done(task); });
}

void SimState::on_task_done(int task) {
  const Site site = site_of(task);
  const int si = site_index(site);
  if (obs::enabled()) {
    obs::Tracer::global().instant(
        "wf.task_done", "wfsim",
        {{"task", task},
         {"site", site == Site::kCluster ? 0 : 1},
         {"sim_ms", static_cast<std::int64_t>(engine.now() * 1e3)}});
  }
  for (int fid : wf->task(task).outputs)
    present[static_cast<std::size_t>(si)][static_cast<std::size_t>(fid)] = true;
  if (site == Site::kCluster) {
    const int node = task_node[static_cast<std::size_t>(task)];
    free_nodes.emplace(node_gflops[static_cast<std::size_t>(node)], node);
  } else {
    ++free_vms;
  }
  ++tasks_done;
  last_done_s = engine.now();

  for (int child : wf->task(task).children) {
    const auto c = static_cast<std::size_t>(child);
    if (--missing_parents[c] == 0) on_task_ready(child);
  }
  try_dispatch();
}

}  // namespace

SimResult simulate(const Workflow& wf, const Platform& platform,
                   const RunConfig& config) {
  PEACHY_REQUIRE(config.pstate >= 0 && config.pstate < platform.num_pstates(),
                 "p-state " << config.pstate << " out of [0,"
                            << platform.num_pstates() << ")");
  PEACHY_REQUIRE(config.nodes_on >= 0 &&
                     config.nodes_on <= platform.cluster.total_nodes,
                 "nodes_on " << config.nodes_on << " out of [0,"
                             << platform.cluster.total_nodes << "]");
  PEACHY_REQUIRE(config.node_pstates.empty() ||
                     static_cast<int>(config.node_pstates.size()) ==
                         config.nodes_on,
                 "node_pstates must have nodes_on entries, got "
                     << config.node_pstates.size());

  SimState st(wf, platform, config);
  if (st.cfg.placement.empty())
    st.cfg.placement = Placement::all(wf, Site::kCluster);

  // A cluster-placed task with zero powered nodes can never run.
  for (const Task& t : wf.tasks())
    if (st.cfg.placement.site_of(t.id) == Site::kCluster)
      PEACHY_REQUIRE(config.nodes_on > 0,
                     "task " << t.name
                             << " is placed on the cluster but nodes_on == 0");

  st.present.assign(2, std::vector<bool>(
                           static_cast<std::size_t>(wf.num_files()), false));
  st.inflight.assign(2, std::vector<bool>(
                            static_cast<std::size_t>(wf.num_files()), false));
  // Workflow inputs start on cluster storage.
  for (const File& f : wf.files())
    if (f.producer == -1)
      st.present[0][static_cast<std::size_t>(f.id)] = true;

  st.missing_parents.resize(static_cast<std::size_t>(wf.num_tasks()));
  st.missing_inputs.assign(static_cast<std::size_t>(wf.num_tasks()), 0);
  st.dispatched.assign(static_cast<std::size_t>(wf.num_tasks()), false);
  st.task_node.assign(static_cast<std::size_t>(wf.num_tasks()), -1);
  for (int n = 0; n < config.nodes_on; ++n) {
    const int ps = config.node_pstates.empty()
                       ? config.pstate
                       : config.node_pstates[static_cast<std::size_t>(n)];
    PEACHY_REQUIRE(ps >= 0 && ps < platform.num_pstates(),
                   "node " << n << " has bad p-state " << ps);
    const PState& state = platform.cluster.pstates[static_cast<std::size_t>(ps)];
    st.node_gflops.push_back(state.gflops);
    st.node_busy_watts.push_back(state.busy_watts);
    st.node_busy_s.push_back(0.0);
    st.free_nodes.emplace(state.gflops, n);
  }
  st.free_vms = platform.cloud.vms;

  for (const Task& t : wf.tasks()) {
    st.missing_parents[static_cast<std::size_t>(t.id)] =
        static_cast<int>(t.parents.size());
    if (t.parents.empty()) {
      if (st.site_of(t.id) == Site::kCluster)
        st.ready_cluster.insert(t.id);
      else
        st.ready_cloud.insert(t.id);
    }
  }
  st.engine.schedule_at(0.0, [&st] { st.try_dispatch(); });
  {
    obs::Span span("wf.simulate", "wfsim");
    span.arg("tasks", wf.num_tasks());
    span.arg("files", wf.num_files());
    st.engine.run();
  }

  PEACHY_REQUIRE(st.tasks_done == wf.num_tasks(),
                 "simulation stalled: " << st.tasks_done << " of "
                                        << wf.num_tasks() << " tasks finished");

  SimResult r = st.result;
  r.makespan_s = st.last_done_s;
  r.link_busy_s = st.flows.busy_s(st.link.front());

  r.cluster_energy_j = 0;
  for (int n = 0; n < config.nodes_on; ++n) {
    const auto i = static_cast<std::size_t>(n);
    r.cluster_energy_j +=
        st.node_busy_s[i] * st.node_busy_watts[i] +
        std::max(0.0, r.makespan_s - st.node_busy_s[i]) *
            platform.cluster.idle_watts;
  }
  r.cloud_energy_j = r.cloud_busy_vm_s * platform.cloud.vm_busy_watts;

  constexpr double kJoulesPerKwh = 3.6e6;
  r.cluster_gco2 =
      r.cluster_energy_j / kJoulesPerKwh * platform.cluster.gco2_per_kwh;
  r.cloud_gco2 = r.cloud_energy_j / kJoulesPerKwh * platform.cloud.gco2_per_kwh;
  r.total_gco2 = r.cluster_gco2 + r.cloud_gco2;
  return r;
}

SpeedupReport speedup_vs_one_node(const Workflow& wf, const Platform& platform,
                                  const RunConfig& config) {
  RunConfig one = config;
  one.nodes_on = 1;
  one.placement = Placement::all(wf, Site::kCluster);
  const SimResult r1 = simulate(wf, platform, one);
  const SimResult rn = simulate(wf, platform, config);
  SpeedupReport rep;
  rep.t1_s = r1.makespan_s;
  rep.tn_s = rn.makespan_s;
  rep.speedup = r1.makespan_s / rn.makespan_s;
  rep.efficiency = rep.speedup / static_cast<double>(config.nodes_on);
  return rep;
}

}  // namespace peachy::wf

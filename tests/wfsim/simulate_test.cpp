#include "wfsim/simulate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/error.hpp"
#include "wfsim/montage.hpp"

namespace peachy::wf {
namespace {

// Two independent tasks, each 10 Gflop reading one 1 MB input.
Workflow two_tasks() {
  WorkflowBuilder b;
  const int f0 = b.add_file("f0", 1e6);
  const int f1 = b.add_file("f1", 1e6);
  b.add_task("a", 10e9, {f0}, {});
  b.add_task("b", 10e9, {f1}, {});
  return b.build();
}

// chain: a -> b through a 125 MB file (1 s on the default link).
Workflow chain() {
  WorkflowBuilder b;
  const int in = b.add_file("in", 1e3);
  const int mid = b.add_file("mid", 125e6);
  const int out = b.add_file("out", 1e3);
  b.add_task("a", 10e9, {in}, {mid});
  b.add_task("b", 10e9, {mid}, {out});
  return b.build();
}

Platform platform() { return eduwrench_platform(); }

TEST(Simulate, SingleNodeSerializesIndependentTasks) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = 0;  // 10 Gflop/s -> 1 s per task
  const SimResult r = simulate(wf, platform(), cfg);
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-9);
  EXPECT_NEAR(r.cluster_busy_node_s, 2.0, 1e-9);
  EXPECT_EQ(r.tasks_on_cluster, 2);
  EXPECT_EQ(r.transfers, 0);  // inputs already on cluster storage
}

TEST(Simulate, TwoNodesRunInParallel) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.nodes_on = 2;
  cfg.pstate = 0;
  const SimResult r = simulate(wf, platform(), cfg);
  EXPECT_NEAR(r.makespan_s, 1.0, 1e-9);
}

TEST(Simulate, PStateSpeedsUpCompute) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = platform().max_pstate();  // 22 Gflop/s
  const SimResult r = simulate(wf, platform(), cfg);
  EXPECT_NEAR(r.makespan_s, 2.0 * 10.0 / 22.0, 1e-9);
}

TEST(Simulate, DependenciesRespected) {
  const Workflow wf = chain();
  RunConfig cfg;
  cfg.nodes_on = 2;
  cfg.pstate = 0;
  const SimResult r = simulate(wf, platform(), cfg);
  // Both on cluster, file local: 1 s + 1 s, extra node useless.
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-9);
}

TEST(Simulate, CloudPlacementPaysTransfer) {
  const Workflow wf = chain();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = 0;
  cfg.placement = Placement::all(wf, Site::kCluster);
  cfg.placement.set(1, Site::kCloud);  // child on cloud
  const SimResult r = simulate(wf, platform(), cfg);
  // a: 1 s on cluster; transfer 125 MB over 125 MB/s + 10 ms latency;
  // b: 10e9 / 14e9 s on a VM.
  EXPECT_NEAR(r.makespan_s, 1.0 + 1.01 + 10.0 / 14.0, 1e-6);
  EXPECT_EQ(r.transfers, 1);
  EXPECT_NEAR(r.transferred_bytes, 125e6, 1);
  EXPECT_EQ(r.tasks_on_cloud, 1);
}

TEST(Simulate, DataLocalityOnCloudAvoidsTransfer) {
  const Workflow wf = chain();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = 0;
  cfg.placement = Placement::all(wf, Site::kCloud);
  const SimResult r = simulate(wf, platform(), cfg);
  // Only the tiny workflow input crosses the link; "mid" stays on the
  // cloud storage (the §IV.B data-locality point).
  EXPECT_EQ(r.transfers, 1);
  EXPECT_NEAR(r.transferred_bytes, 1e3, 1e-9);
}

TEST(Simulate, SharedFileTransferredOnce) {
  // Two cloud tasks consume the same cluster-resident input.
  WorkflowBuilder b;
  const int f = b.add_file("shared", 50e6);
  b.add_task("a", 1e9, {f}, {});
  b.add_task("c", 1e9, {f}, {});
  const Workflow wf = b.build();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.placement = Placement::all(wf, Site::kCloud);
  const SimResult r = simulate(wf, platform(), cfg);
  EXPECT_EQ(r.transfers, 1);  // deduplicated in-flight transfer
}

TEST(Simulate, LinkIsFifoSerialized) {
  // Two cloud tasks each pulling their own 125 MB file: the second waits.
  WorkflowBuilder b;
  const int f0 = b.add_file("f0", 125e6);
  const int f1 = b.add_file("f1", 125e6);
  b.add_task("a", 14e9, {f0}, {});
  b.add_task("c", 14e9, {f1}, {});
  const Workflow wf = b.build();
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.placement = Placement::all(wf, Site::kCloud);
  const SimResult r = simulate(wf, platform(), cfg);
  // Transfers: 1.01 and then 1.01 more; second task starts at 2.02 and
  // runs 1 s.
  EXPECT_NEAR(r.makespan_s, 3.02, 1e-6);
  EXPECT_NEAR(r.link_busy_s, 2.02, 1e-6);
}

TEST(Simulate, FairShareSingleTransferMatchesFifo) {
  const Workflow wf = chain();
  Platform fair = platform();
  fair.link.sharing = LinkSharing::kFairShare;
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = 0;
  cfg.placement = Placement::all(wf, Site::kCluster);
  cfg.placement.set(1, Site::kCloud);
  const SimResult fifo = simulate(wf, platform(), cfg);
  const SimResult shared = simulate(wf, fair, cfg);
  EXPECT_NEAR(fifo.makespan_s, shared.makespan_s, 1e-6);
  EXPECT_EQ(fifo.transfers, shared.transfers);
}

TEST(Simulate, FairShareSplitsBandwidthBetweenConcurrentTransfers) {
  // Two cloud tasks each pulling their own 125 MB file.
  WorkflowBuilder b;
  const int f0 = b.add_file("f0", 125e6);
  const int f1 = b.add_file("f1", 125e6);
  b.add_task("a", 14e9, {f0}, {});
  b.add_task("c", 14e9, {f1}, {});
  const Workflow wf = b.build();
  Platform fair = platform();
  fair.link.sharing = LinkSharing::kFairShare;
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.placement = Placement::all(wf, Site::kCloud);
  const SimResult r = simulate(wf, fair, cfg);
  // Both transfers overlap at half rate: done at 0.01 + 2.0; both tasks
  // then run 1 s in parallel on two VMs.
  EXPECT_NEAR(r.makespan_s, 3.01, 1e-6);
  // Link busy wall-clock is the overlapped window, not the byte total.
  EXPECT_NEAR(r.link_busy_s, 2.0, 1e-6);
  // FIFO finishes the first task earlier but the last at the same time.
  const SimResult fifo = simulate(wf, platform(), cfg);
  EXPECT_NEAR(fifo.makespan_s, 3.02, 1e-6);
}

TEST(Simulate, FairShareRateAdaptsWhenTransferJoins) {
  // t0 starts a 125 MB pull alone; 0.51 s later (after its parent runs) a
  // second 125 MB pull joins. First transfer: 0.5 s at full rate (62.5 MB)
  // + shared tail.
  WorkflowBuilder b;
  const int big0 = b.add_file("big0", 125e6);
  const int tiny = b.add_file("tiny", 0.0);
  const int big1 = b.add_file("big1", 125e6);
  b.add_task("starter", 5e9, {tiny}, {big1});    // 0.5 s on the cluster @ p0
  b.add_task("a", 14e9, {big0}, {});             // cloud, pulls immediately
  b.add_task("c", 14e9, {big1}, {});             // cloud, pulls at 0.5 s
  const Workflow wf = b.build();
  Platform fair = platform();
  fair.link.sharing = LinkSharing::kFairShare;
  RunConfig cfg;
  cfg.nodes_on = 1;
  cfg.pstate = 0;
  cfg.placement = Placement::all(wf, Site::kCloud);
  cfg.placement.set(0, Site::kCluster);
  const SimResult r = simulate(wf, fair, cfg);
  // Transfer A: starts 0.01, alone until 0.51 (62.5 MB done), then shares
  // with B: 62.5 MB left at 62.5 MB/s -> 1.0 s -> done at 1.51.
  // Transfer B: starts 0.51, 62.5 MB done by 1.51, then alone: 62.5 MB at
  // full rate -> done at 2.01. Task c ends 3.01 (the makespan).
  EXPECT_NEAR(r.makespan_s, 3.01, 1e-4);
}

TEST(Simulate, FairShareMontageReproducesShape) {
  // The Tab #2 qualitative conclusions must not depend on the link model.
  const Workflow wf = make_montage();
  Platform fair = platform();
  fair.link.sharing = LinkSharing::kFairShare;
  RunConfig local;
  local.nodes_on = 12;
  local.pstate = 0;
  RunConfig cloud = local;
  cloud.placement = Placement::all(wf, Site::kCloud);
  const SimResult r_local = simulate(wf, fair, local);
  const SimResult r_cloud = simulate(wf, fair, cloud);
  EXPECT_LT(r_cloud.total_gco2, r_local.total_gco2);
  EXPECT_LT(r_cloud.makespan_s, r_local.makespan_s);
}

// Every level of Montage-738 sends fraction `f` of its tasks to the cloud
// (the job service's placement sweep).
Placement uniform(const Workflow& wf, double f) {
  return Placement::level_fractions(
      wf, std::vector<double>(static_cast<std::size_t>(wf.num_levels()), f));
}

TEST(Simulate, FairShareMixedPlacementsFinishAndMoveTheSameFilesAsFifo) {
  // Fair sharing used to decide completion by a residual-byte test: a
  // transfer left with just over 1e-6 B rescheduled itself less than half
  // an ulp ahead of a ~370 s clock, and the simulation never returned for
  // any of these mixed placements. Which files cross the link depends on
  // the placement alone, so both link models must count the same
  // transfers; the byte totals differ only by summation order.
  const Workflow wf = make_montage();
  Platform fair = platform();
  fair.link.sharing = LinkSharing::kFairShare;
  for (const auto& [nodes, pstate] : {std::pair{12, 0}, std::pair{64, 6}})
    for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      SCOPED_TRACE(::testing::Message()
                   << nodes << " nodes @ p" << pstate << ", fraction " << f);
      RunConfig cfg;
      cfg.nodes_on = nodes;
      cfg.pstate = pstate;
      cfg.placement = uniform(wf, f);
      const SimResult fifo = simulate(wf, platform(), cfg);
      const SimResult shared = simulate(wf, fair, cfg);
      EXPECT_GT(shared.transfers, 0);
      EXPECT_EQ(shared.transfers, fifo.transfers);
      EXPECT_NEAR(shared.transferred_bytes, fifo.transferred_bytes,
                  1e-12 * fifo.transferred_bytes);
      EXPECT_EQ(shared.tasks_on_cloud, fifo.tasks_on_cloud);
      // The link moves bytes no faster than its bandwidth, and only while
      // the workflow runs.
      EXPECT_GE(shared.link_busy_s * (1 + 1e-12),
                shared.transferred_bytes / fair.link.bytes_per_s);
      EXPECT_LE(shared.link_busy_s, shared.makespan_s);
    }
}

// FIFO results pinned bit for bit (hex of the IEEE-754 doubles), captured
// before the link moved onto sim::FlowSet. Any change to event order,
// summation order or the transfer duration formula shows here.
TEST(Simulate, FifoMontageResultsArePinnedBitForBit) {
  const Workflow wf = make_montage();
  struct Pinned {
    const char* name;
    int nodes;
    int pstate;
    Placement placement;
    std::uint64_t makespan_s, total_gco2, link_busy_s;
  };
  const Pinned cases[] = {
      {"all local", 12, 0, Placement::all(wf, Site::kCluster),
       0x40909a0000000000, 0x405f733b98c7e282, 0x0000000000000000},
      {"levels 0+1 on cloud", 12, 0, Placement::level_fractions(wf, {1, 1}),
       0x40870fb1bba92c76, 0x405457bc9e13d7bc, 0x4045cd2b18addbf1},
      {"uniform 0.5", 64, 6, uniform(wf, 0.5),
       0x407661115fe0d99d, 0x406c2b648bc25bec, 0x404763320573962e},
  };
  for (const Pinned& c : cases) {
    SCOPED_TRACE(c.name);
    RunConfig cfg;
    cfg.nodes_on = c.nodes;
    cfg.pstate = c.pstate;
    cfg.placement = c.placement;
    const SimResult r = simulate(wf, platform(), cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.makespan_s), c.makespan_s)
        << r.makespan_s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_gco2), c.total_gco2)
        << r.total_gco2;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.link_busy_s), c.link_busy_s)
        << r.link_busy_s;
  }
}

TEST(Simulate, VmCountLimitsCloudParallelism) {
  WorkflowBuilder b;
  for (int i = 0; i < 32; ++i)
    b.add_task(std::string("t") + std::to_string(i), 14e9, {}, {});
  const Workflow wf = b.build();
  RunConfig cfg;
  cfg.nodes_on = 0;
  cfg.placement = Placement::all(wf, Site::kCloud);
  const SimResult r = simulate(wf, platform(), cfg);
  // 32 one-second tasks over 16 VMs -> 2 s.
  EXPECT_NEAR(r.makespan_s, 2.0, 1e-9);
  EXPECT_EQ(r.tasks_on_cloud, 32);
}

TEST(Simulate, EnergyAccountingIdentity) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.nodes_on = 2;
  cfg.pstate = 0;
  const Platform p = platform();
  const SimResult r = simulate(wf, p, cfg);
  const double busy_w = p.cluster.pstates[0].busy_watts;
  const double expected = r.cluster_busy_node_s * busy_w +
                          (2 * r.makespan_s - r.cluster_busy_node_s) *
                              p.cluster.idle_watts;
  EXPECT_NEAR(r.cluster_energy_j, expected, 1e-6);
  EXPECT_NEAR(r.cluster_gco2,
              r.cluster_energy_j / 3.6e6 * p.cluster.gco2_per_kwh, 1e-9);
  EXPECT_DOUBLE_EQ(r.cloud_energy_j, 0.0);
  EXPECT_NEAR(r.total_gco2, r.cluster_gco2 + r.cloud_gco2, 1e-12);
}

TEST(Simulate, IdleNodesBurnCarbon) {
  const Workflow wf = two_tasks();
  RunConfig few;
  few.nodes_on = 2;
  few.pstate = 0;
  RunConfig many = few;
  many.nodes_on = 64;
  const SimResult r_few = simulate(wf, platform(), few);
  const SimResult r_many = simulate(wf, platform(), many);
  EXPECT_NEAR(r_few.makespan_s, r_many.makespan_s, 1e-9);
  EXPECT_GT(r_many.total_gco2, r_few.total_gco2 * 5);
}

TEST(Simulate, HomogeneousVectorMatchesScalarConfig) {
  const Workflow wf = make_montage();
  RunConfig scalar;
  scalar.nodes_on = 24;
  scalar.pstate = 3;
  RunConfig vec = scalar;
  vec.node_pstates.assign(24, 3);
  const SimResult a = simulate(wf, platform(), scalar);
  const SimResult b = simulate(wf, platform(), vec);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_NEAR(a.cluster_energy_j, b.cluster_energy_j, 1e-6);
  EXPECT_NEAR(a.total_gco2, b.total_gco2, 1e-9);
}

TEST(Simulate, HeterogeneousSingleTaskUsesFastestNode) {
  WorkflowBuilder b;
  b.add_task("t", 22e9, {}, {});
  const Workflow wf = b.build();
  RunConfig cfg;
  cfg.nodes_on = 3;
  cfg.node_pstates = {0, 6, 2};  // speeds 10, 22, 14 Gflop/s
  const SimResult r = simulate(wf, platform(), cfg);
  EXPECT_NEAR(r.makespan_s, 1.0, 1e-9);  // 22e9 / 22 Gflop/s on node 1
}

TEST(Simulate, HeterogeneousMakespanBetweenExtremes) {
  const Workflow wf = make_montage();
  const Platform p = platform();
  auto run_uniform = [&](int ps) {
    RunConfig cfg;
    cfg.nodes_on = 16;
    cfg.pstate = ps;
    return simulate(wf, p, cfg).makespan_s;
  };
  RunConfig mixed;
  mixed.nodes_on = 16;
  mixed.node_pstates.assign(16, 0);
  for (int i = 0; i < 8; ++i) mixed.node_pstates[static_cast<std::size_t>(i)] = 6;
  const double t_mixed = simulate(wf, p, mixed).makespan_s;
  EXPECT_LT(t_mixed, run_uniform(0));
  EXPECT_GT(t_mixed, run_uniform(6));
}

TEST(Simulate, HeterogeneousValidation) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.nodes_on = 2;
  cfg.node_pstates = {0};  // wrong length
  EXPECT_THROW(simulate(wf, platform(), cfg), Error);
  cfg.node_pstates = {0, 99};  // bad p-state
  EXPECT_THROW(simulate(wf, platform(), cfg), Error);
}

TEST(Simulate, ValidatesConfig) {
  const Workflow wf = two_tasks();
  RunConfig cfg;
  cfg.pstate = 99;
  EXPECT_THROW(simulate(wf, platform(), cfg), Error);
  cfg = RunConfig{};
  cfg.nodes_on = 1000;
  EXPECT_THROW(simulate(wf, platform(), cfg), Error);
  cfg = RunConfig{};
  cfg.nodes_on = 0;  // cluster tasks but no nodes
  EXPECT_THROW(simulate(wf, platform(), cfg), Error);
}

TEST(Simulate, MontageMakespanMonotoneInNodes) {
  const Workflow wf = make_montage();
  const Platform p = platform();
  double prev = 1e18;
  for (int nodes : {4, 8, 16, 32, 64}) {
    RunConfig cfg;
    cfg.nodes_on = nodes;
    cfg.pstate = p.max_pstate();
    const double t = simulate(wf, p, cfg).makespan_s;
    EXPECT_LE(t, prev + 1e-9) << nodes << " nodes";
    prev = t;
  }
}

TEST(Simulate, MontageMakespanMonotoneInPstate) {
  const Workflow wf = make_montage();
  const Platform p = platform();
  double prev = 1e18;
  for (int ps = 0; ps < p.num_pstates(); ++ps) {
    RunConfig cfg;
    cfg.nodes_on = 64;
    cfg.pstate = ps;
    const double t = simulate(wf, p, cfg).makespan_s;
    EXPECT_LT(t, prev) << "pstate " << ps;
    prev = t;
  }
}

TEST(Simulate, DeterministicAcrossRuns) {
  const Workflow wf = make_montage();
  RunConfig cfg;
  cfg.nodes_on = 48;
  cfg.pstate = 3;
  cfg.placement = Placement::level_fractions(wf, {0.5, 0.25, 0, 1});
  const SimResult a = simulate(wf, platform(), cfg);
  const SimResult b = simulate(wf, platform(), cfg);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.total_gco2, b.total_gco2);
  EXPECT_EQ(a.transfers, b.transfers);
}

TEST(Placement, LevelFractions) {
  const Workflow wf = make_montage();
  const Placement p = Placement::level_fractions(wf, {1.0, 0.5});
  int cloud_l0 = 0, cloud_l1 = 0, cloud_rest = 0;
  for (const Task& t : wf.tasks()) {
    if (p.site_of(t.id) != Site::kCloud) continue;
    if (t.level == 0) ++cloud_l0;
    else if (t.level == 1) ++cloud_l1;
    else ++cloud_rest;
  }
  EXPECT_EQ(cloud_l0, 180);
  EXPECT_EQ(cloud_l1, 180);
  EXPECT_EQ(cloud_rest, 0);
  EXPECT_EQ(p.cloud_task_count(), 360);
}

TEST(Placement, RejectsBadFractions) {
  const Workflow wf = two_tasks();
  EXPECT_THROW(Placement::level_fractions(wf, {1.5}), Error);
  EXPECT_THROW(Placement::level_fractions(wf, {-0.1}), Error);
}

TEST(SpeedupReport, MontageSpeedupShape) {
  // Q1 of Tab #1: speedup is substantial but efficiency < 1 because of the
  // serial bottleneck tasks (mConcatFit, mBgModel, mAdd).
  const Workflow wf = make_montage();
  RunConfig cfg;
  cfg.nodes_on = 64;
  cfg.pstate = platform().max_pstate();
  const SpeedupReport rep = speedup_vs_one_node(wf, platform(), cfg);
  EXPECT_GT(rep.speedup, 5.0);
  EXPECT_LT(rep.speedup, 64.0);
  EXPECT_GT(rep.efficiency, 0.05);
  EXPECT_LT(rep.efficiency, 1.0);
  EXPECT_NEAR(rep.speedup, rep.t1_s / rep.tn_s, 1e-12);
}

}  // namespace
}  // namespace peachy::wf

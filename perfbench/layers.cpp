#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>

#include "core/error.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "dmr/job.hpp"
#include "machine/calibrate.hpp"
#include "mpp/checkpoint.hpp"
#include "mpp/mpp.hpp"
#include "mpp/pool.hpp"
#include "sandpile/distributed.hpp"
#include "svc/queue.hpp"
#include "svc/runner.hpp"
#include "svc/scheduler.hpp"

namespace perfbench {

using namespace peachy;
void TraceLog::span(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns, int tid,
                    std::vector<std::pair<std::string, std::int64_t>> args) {
  obs::TraceEvent ev;
  ev.cat = name.substr(0, name.find('.'));
  ev.name = std::move(name);
  ev.ts_ns = start_ns;
  ev.dur_ns = end_ns - start_ns;
  ev.tid = tid;
  ev.args = std::move(args);
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(ev));
}

void TraceLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  obs::write_chrome_trace(path, events_);
}

std::vector<double> StreamRun::latencies(svc::JobKind kind) const {
  std::vector<double> ms;
  for (const JobRun& j : jobs)
    if (j.kind == kind) ms.push_back(j.latency_ms);
  return ms;
}

std::vector<double> StreamRun::latencies() const {
  std::vector<double> ms;
  for (const JobRun& j : jobs) ms.push_back(j.latency_ms);
  return ms;
}

int StreamRun::refusals() const {
  int n = 0;
  for (const JobRun& j : jobs) n += j.refusals;
  return n;
}

namespace {

using svc::JobKind;
constexpr int kLayerTid = 0;  ///< trace track of the layer calls

/// Times `reps` calls of `fn`, one span per call; the samples in ms.
template <typename Fn>
std::vector<double> timed(TraceLog& trace, const std::string& name, int reps,
                          Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    trace.span(name, t0, t1, kLayerTid,
               {{"call", i}, {"span_id", trace.new_span_id()}});
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return ms;
}

template <typename Fn>
double timed_once(TraceLog& trace, const std::string& name, Fn&& fn) {
  return timed(trace, name, 1, std::forward<Fn>(fn)).front();
}

/// Runs `fn` with obs recording on and a fresh registry; the snapshot.
template <typename Fn>
std::vector<obs::MetricSample> observed(Fn&& fn) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  fn();
  std::vector<obs::MetricSample> snapshot = obs::Registry::global().samples();
  obs::set_enabled(false);
  return snapshot;
}

double counter(const std::vector<obs::MetricSample>& snapshot,
               const std::string& name) {
  for (const obs::MetricSample& s : snapshot)
    if (s.name == name) return static_cast<double>(s.value);
  return 0;
}

/// The same world body svc's runner builds for a dmr job.
dmr::Result<std::string, std::uint64_t> run_dmr(
    const svc::DmrParams& p, int ranks, mpp::TransportKind transport,
    const std::vector<std::pair<int, std::string>>& corpus,
    const std::string& spill_dir) {
  dmr::Job<int, std::string, std::string, std::uint64_t, std::string,
           std::uint64_t>
      job;
  job.mapper(map_words).combiner(sum_counts).reducer(sum_counts);
  dmr::Options opt;
  opt.ranks = ranks;
  opt.map_tasks = static_cast<int>(p.map_tasks);
  opt.partitions = static_cast<int>(p.partitions);
  opt.map_epochs = static_cast<int>(p.map_epochs);
  opt.run.transport = transport;
  opt.spill_dir = spill_dir;
  job.options(std::move(opt));
  return job.run(corpus);
}

sandpile::DistributedResult run_sandpile(const sandpile::Field& initial,
                                         const svc::SandpileParams& p,
                                         int ranks,
                                         mpp::TransportKind transport) {
  sandpile::DistributedOptions opt;
  opt.ranks = ranks;
  opt.halo_depth = static_cast<int>(p.halo_depth);
  opt.run.transport = transport;
  return sandpile::stabilize_distributed(initial, opt);
}

/// The platform the calibration fits: every rank is one loopback node, so
/// the NIC and fabric edges fitted from the tcp runs carry all the cost.
machine::Machine loopback_machine(int nodes) {
  machine::NodeGroup g;
  g.name = "loopback";
  g.nodes = std::max(nodes, 2);
  g.sockets_per_node = 1;
  g.cores_per_socket = 1;
  g.core_gflops = 1.0;
  g.l3 = {1e15, 0.0};
  g.membus = {1e15, 0.0};
  g.nic = {1e9, 1e-6};  // replaced by from_measurements
  machine::Machine m;
  m.groups.push_back(g);
  m.fabric = {1e9, 0.0};
  return m;
}

/// Predicted wall time of a run's frames: they split evenly over `flows`
/// concurrent flows, each flow sending its frames one after another.
double predicted_ms(const machine::Machine& m,
                    const std::vector<obs::MetricSample>& snapshot, int flows) {
  const machine::CalibrationPoint p = machine::calibration_point(snapshot);
  const double per_frame_s = machine::predict_transfer_s(
      m, {0, 0, 0, 0}, {0, 1, 0, 0}, p.mean_frame_bytes);
  return static_cast<double>(p.frames) / std::max(flows, 1) * per_frame_s * 1e3;
}

}  // namespace

void measure_layers(const LayerContext& ctx, ResultLine& out) {
  const Workload& w = ctx.workload;
  TraceLog& trace = ctx.trace;
  const int reps = w.layer_reps;
  const bool process = w.isolation == svc::Isolation::kProcess;
  std::filesystem::remove_all(ctx.scratch_dir);
  std::filesystem::create_directories(ctx.scratch_dir);
  const std::string dir = ctx.scratch_dir;

  std::map<JobKind, svc::JobSpec> spec;
  for (const JobKind kind : kKinds) {
    spec[kind] = job_spec(w, kind);
    spec[kind].dmr.seed = ctx.refs.dmr.begin()->first;
  }
  const int ranks = static_cast<int>(spec[JobKind::kSandpile].ranks);
  const svc::SandpileParams& sp = spec[JobKind::kSandpile].sandpile;
  const svc::DmrParams& dp = spec[JobKind::kDmr].dmr;
  const svc::WfsimParams& wp = spec[JobKind::kWfsim].wfsim;
  const sandpile::Field initial = sandpile::center_pile(
      static_cast<int>(sp.height), static_cast<int>(sp.width), sp.grains);
  const std::vector<std::pair<int, std::string>> corpus = dmr_corpus(dp);
  mpp::RankPool pool(pool_ranks());

  // ---- svc: the client round trips the traced stream made.
  std::vector<double> submit_ms, status_ms;
  std::map<JobKind, std::vector<double>> submit_by_kind;
  for (const JobRun& j : ctx.traced.jobs) {
    submit_ms.push_back(j.submit_ms);
    submit_by_kind[j.kind].push_back(j.submit_ms);
    status_ms.insert(status_ms.end(), j.status_ms.begin(), j.status_ms.end());
  }
  out.add("svc.submit_ms", median(submit_ms), "ms");
  out.add("svc.status_ms", median(status_ms), "ms");

  // ---- svc: the store's write path (a job's three commits) and read path.
  std::vector<double> put_ms;
  {
    svc::JobStore store(dir + "/store");
    for (int i = 0; i < reps * 10; ++i) {
      for (const JobKind kind : kKinds) {
        svc::JobRecord rec;
        rec.id = store.allocate_id();
        rec.spec = spec[kind];
        for (const svc::JobState state :
             {svc::JobState::kQueued, svc::JobState::kRunning,
              svc::JobState::kDone}) {
          rec.state = state;
          if (state == svc::JobState::kDone)
            rec.result = reference_blob(ctx.refs, spec[kind]);
          put_ms.push_back(
              timed_once(trace, "svc.store_put", [&] { store.put(rec); }));
        }
      }
    }
  }
  const double store_put = median(put_ms);
  out.add("svc.store_put_ms", store_put, "ms");
  const std::string history = dir + "/history";
  prefill_history(history);
  out.add("svc.store_load_ms",
          median(timed(trace, "svc.store_load", std::max(reps, 5), [&] {
            svc::JobStore store(history);
            PEACHY_CHECK(store.load_all().size() ==
                         static_cast<std::size_t>(kHistoryJobs));
          })),
          "ms");

  // ---- svc: one fair-share cycle over the workload's three tenants.
  {
    svc::SchedulerOptions so;
    so.quantum = pool_ranks();
    svc::FairShareScheduler sched(so);
    const std::string tenants[] = {"tenant-0", "tenant-1", "tenant-2"};
    constexpr int kCycles = 20000;
    std::uint64_t id = 0;
    const std::vector<double> batch_ms =
        timed(trace, "svc.sched_cycles", 5, [&] {
          for (int i = 0; i < kCycles; ++i) {
            const std::string& tenant = tenants[i % kTenants];
            PEACHY_CHECK(sched.try_admit(tenant).empty());
            sched.enqueue(++id, tenant, ranks);
            const std::optional<std::uint64_t> picked = sched.pick(pool_ranks());
            PEACHY_CHECK(picked.has_value());
            sched.complete(*picked, ranks * 5LL);
          }
        });
    out.add("svc.sched_us", median(batch_ms) * 1e3 / kCycles, "us");
  }

  // ---- svc: run_job straight, with the workload's isolation; and the same
  // job with and without checkpoints for the per-cut cost.
  int ckpt_calls = 0;
  const auto run_job = [&](const svc::JobSpec& s, svc::Isolation isolation) {
    svc::RunnerOptions ro;
    ro.pool = &pool;
    ro.isolation = isolation;
    ro.checkpoint_dir = dir + "/ckpt-" + std::to_string(ckpt_calls++);
    ro.keep_checkpoint = false;
    const svc::RunnerOutcome r = svc::run_job(s, ro);
    PEACHY_REQUIRE(!r.aborted, "layer call of svc::run_job was aborted");
    const std::string wrong = check_result(ctx.refs, s, r.result);
    PEACHY_REQUIRE(wrong.empty(), "layer call of svc::run_job: " << wrong);
    std::filesystem::remove_all(ro.checkpoint_dir);
  };
  std::map<JobKind, std::vector<double>> run_job_ms;
  for (int i = 0; i < reps; ++i)
    for (const JobKind kind : kKinds)
      run_job_ms[kind].push_back(
          timed_once(trace, std::string("svc.run_job.") + svc::to_string(kind),
                     [&] { run_job(spec[kind], w.isolation); }));

  // The service defaults (job.hpp) stand in for a spec without checkpoints,
  // so the per-cut cost is known on every workload.
  struct Ckpt {
    double per_cut_ms = 0, cuts = 0, bytes = 0, save_ms = 0;
    double per_job = 0, bytes_per_job = 0;
  };
  std::map<JobKind, Ckpt> ckpt;
  for (const JobKind kind : {JobKind::kSandpile, JobKind::kDmr}) {
    const bool sand = kind == JobKind::kSandpile;
    const std::uint32_t spec_every =
        sand ? sp.checkpoint_every : dp.checkpoint_every;
    svc::JobSpec with = spec[kind], without = spec[kind];
    std::uint32_t& with_every =
        sand ? with.sandpile.checkpoint_every : with.dmr.checkpoint_every;
    if (with_every == 0)
      with_every = sand ? svc::SandpileParams{}.checkpoint_every
                        : svc::DmrParams{}.checkpoint_every;
    (sand ? without.sandpile.checkpoint_every : without.dmr.checkpoint_every) = 0;
    const std::string name = std::string("mpp.checkpoint.") + svc::to_string(kind);
    std::vector<double> with_ms = spec_every ? run_job_ms[kind] : std::vector<double>{};
    std::vector<double> without_ms = spec_every ? std::vector<double>{} : run_job_ms[kind];
    for (int i = 0; i < reps; ++i) {
      if (with_ms.size() < static_cast<std::size_t>(reps))
        with_ms.push_back(timed_once(trace, name + ".on",
                                     [&] { run_job(with, w.isolation); }));
      if (without_ms.size() < static_cast<std::size_t>(reps))
        without_ms.push_back(timed_once(
            trace, name + ".off", [&] { run_job(without, w.isolation); }));
    }
    // Cuts and bytes from the mpp counters of a threaded run (the counts do
    // not depend on the substrate; forked workers' counters are not ours).
    const std::vector<obs::MetricSample> snap =
        observed([&] { run_job(with, svc::Isolation::kThreads); });
    Ckpt& c = ckpt[kind];
    c.cuts = counter(snap, "mpp.checkpoints");
    c.bytes = counter(snap, "mpp.checkpoint_bytes");
    if (c.cuts > 0) c.per_cut_ms = (median(with_ms) - median(without_ms)) / c.cuts;
    if (spec_every != 0) {
      c.per_job = c.cuts;
      c.bytes_per_job = c.bytes;
    }
    mpp::CheckpointImage image;
    image.epoch = 1;
    const std::size_t blob_bytes = static_cast<std::size_t>(
        c.cuts > 0 ? c.bytes / c.cuts / ranks : 0);
    image.blobs.assign(static_cast<std::size_t>(ranks),
                       std::vector<std::byte>(blob_bytes, std::byte{7}));
    const std::string save_dir = dir + "/save-" + svc::to_string(kind);
    std::filesystem::create_directories(save_dir);
    c.save_ms = median(timed(trace, "mpp.save_checkpoint", reps * 5,
                             [&] { mpp::save_checkpoint(save_dir, image); }));
  }

  // ---- mpp: a pooled lease and a forked world, both with no-op bodies.
  mpp::RunOptions lease;
  lease.pool = &pool;
  const double lease_ms = median(timed(trace, "mpp.lease", reps * 20, [&] {
    mpp::run_world(ranks, lease, [](mpp::Comm&) {});
  }));
  mpp::RunOptions spawn;
  spawn.transport = mpp::TransportKind::kTcp;
  spawn.spawn = true;
  const double spawn_ms = median(timed(trace, "mpp.spawn", reps * 2, [&] {
    mpp::run_world(ranks, spawn, [](mpp::Comm&) {});
  }));

  // ---- sandpile and net: the kernel over inproc, the same over tcp.
  std::vector<double> sand_inproc, sand_tcp, dmr_inproc, dmr_tcp;
  std::optional<sandpile::DistributedResult> sand_result;
  dmr::Result<std::string, std::uint64_t> dmr_result;
  const std::string spill = dir + "/spill";
  for (int i = 0; i < reps; ++i) {
    sand_inproc.push_back(
        timed_once(trace, "sandpile.stabilize_distributed.inproc", [&] {
          sand_result = run_sandpile(initial, sp, ranks, mpp::TransportKind::kInproc);
        }));
    sand_tcp.push_back(
        timed_once(trace, "sandpile.stabilize_distributed.tcp", [&] {
          run_sandpile(initial, sp, ranks, mpp::TransportKind::kTcp);
        }));
    dmr_inproc.push_back(timed_once(trace, "dmr.run.inproc", [&] {
      dmr_result = run_dmr(dp, ranks, mpp::TransportKind::kInproc, corpus, spill);
    }));
    dmr_tcp.push_back(timed_once(trace, "dmr.run.tcp", [&] {
      run_dmr(dp, ranks, mpp::TransportKind::kTcp, corpus, spill);
    }));
  }
  // Counted tcp runs: message and frame counters, and the rtt/frame-size
  // histograms the machine model is fitted from.
  std::optional<sandpile::DistributedResult> sand_counted;
  dmr::Result<std::string, std::uint64_t> dmr_counted;
  const std::vector<obs::MetricSample> halo_snap = observed([&] {
    sand_counted = run_sandpile(initial, sp, ranks, mpp::TransportKind::kTcp);
  });
  const std::vector<obs::MetricSample> shuffle_snap = observed([&] {
    dmr_counted = run_dmr(dp, ranks, mpp::TransportKind::kTcp, corpus, spill);
  });

  const double compute_ms = median(sand_inproc);
  const double halo_ms = median(sand_tcp) - compute_ms;
  const double dmr_ms = median(dmr_inproc);
  const double shuffle_ms = median(dmr_tcp) - dmr_ms;
  const std::vector<double> seq_ms = timed(trace, "sandpile.stabilize_reference",
                                           reps, [&] {
                                             sandpile::Field f = initial;
                                             sandpile::stabilize_reference(f);
                                           });
  const std::vector<double> mr_ms = timed(trace, "mapreduce.job", reps, [&] {
    reference_word_count(corpus, dp);
  });

  // ---- wfsim: single simulations at steps spread over the job's sweep.
  const std::uint32_t stride = std::max(1u, wp.sweep_steps / 16);
  std::uint32_t step = 0;
  const double simulate_ms = median(timed(trace, "wfsim.simulate", reps * 8, [&] {
    simulate_step(wp, step);
    step = (step + stride) % wp.sweep_steps;
  }));
  const std::vector<obs::MetricSample> sim_snap =
      observed([&] { simulate_step(wp, wp.sweep_steps / 2); });

  // ---- machine model fitted from the two counted tcp runs.
  double halo_pred = 0, shuffle_pred = 0;
  try {
    const machine::Machine m = machine::from_measurements(
        loopback_machine(ranks), {halo_snap, shuffle_snap});
    halo_pred = predicted_ms(m, halo_snap, 2 * (ranks - 1));
    shuffle_pred = predicted_ms(m, shuffle_snap, ranks * (ranks - 1));
  } catch (const Error& e) {
    std::cout << "machine model fit failed (predictions reported as 0): "
              << e.what() << "\n";
  }

  // ---- report.
  for (const JobKind kind : kKinds)
    out.add(std::string("svc.run_job_ms.") + svc::to_string(kind),
            median(run_job_ms[kind]), "ms");
  std::map<JobKind, double> p50, overhead;
  for (const JobKind kind : kKinds) {
    p50[kind] = median(ctx.untraced.latencies(kind));
    overhead[kind] = p50[kind] - median(run_job_ms[kind]);
    out.add(std::string("svc.overhead_ms.") + svc::to_string(kind),
            overhead[kind], "ms");
  }
  out.add("svc.refusals", ctx.untraced.refusals() + ctx.traced.refusals(),
          "count");
  out.add("mpp.lease_ms", lease_ms, "ms");
  out.add("mpp.spawn_ms", spawn_ms, "ms");
  for (const auto& [kind, c] : ckpt) {
    const std::string k = svc::to_string(kind);
    out.add("mpp.checkpoint_ms." + k, c.per_cut_ms, "ms");
    out.add("mpp.save_checkpoint_ms." + k, c.save_ms, "ms");
    out.add("mpp.checkpoints_per_job." + k, c.per_job, "count");
    out.add("mpp.checkpoint_bytes_per_job." + k, c.bytes_per_job, "bytes");
  }
  const std::pair<const char*, const mpp::CommStats*> comms[] = {
      {"sandpile", &sand_counted->comm}, {"dmr", &dmr_counted.comm}};
  for (const auto& [k, c] : comms) {
    out.add(std::string("mpp.messages_per_job.") + k,
            static_cast<double>(c->messages_sent), "count");
    out.add(std::string("mpp.bytes_per_job.") + k,
            static_cast<double>(c->bytes_sent), "bytes");
  }
  out.add("net.halo_ms", halo_ms, "ms");
  out.add("net.shuffle_ms", shuffle_ms, "ms");
  const std::pair<const char*, const mpp::NetStats*> nets[] = {
      {"sandpile", &sand_counted->net}, {"dmr", &dmr_counted.net}};
  for (const auto& [k, n] : nets) {
    out.add(std::string("net.retransmits_per_job.") + k,
            static_cast<double>(n->retransmits), "count");
    out.add(std::string("net.window_stalls_per_job.") + k,
            static_cast<double>(n->window_stalls), "count");
    out.add(std::string("net.acks_per_job.") + k,
            static_cast<double>(n->acks_sent), "count");
  }
  out.add("sandpile.compute_ms", compute_ms, "ms");
  out.add("sandpile.rounds", sand_result->rounds, "count");
  out.add("sandpile.cell_updates_per_s",
          static_cast<double>(sand_result->iterations) * sp.height * sp.width /
              (compute_ms / 1e3),
          "1/s");
  out.add("sandpile.seq_ms", median(seq_ms), "ms");
  out.add("dmr.run_ms", dmr_ms, "ms");
  out.add("dmr.shuffle_bytes_per_job",
          static_cast<double>(dmr_result.counters.shuffle_bytes), "bytes");
  out.add("dmr.shuffle_records_per_job",
          static_cast<double>(dmr_result.counters.shuffle_records), "count");
  out.add("mapreduce.seq_ms", median(mr_ms), "ms");
  out.add("wfsim.simulate_ms", simulate_ms, "ms");
  out.add("sim.events_per_step", counter(sim_snap, "sim.events"), "count");
  out.add("machine.halo_pred_ms", halo_pred, "ms");
  out.add("machine.shuffle_pred_ms", shuffle_pred, "ms");
  const double untraced_p50 = median(ctx.untraced.latencies());
  out.add("obs.trace_overhead_frac",
          (median(ctx.traced.latencies()) - untraced_p50) / untraced_p50,
          "ratio");
  std::cout << "net.halo_ms " << halo_ms << " vs machine.halo_pred_ms "
            << halo_pred << "; net.shuffle_ms " << shuffle_ms
            << " vs machine.shuffle_pred_ms " << shuffle_pred << "\n";

  // ---- attribution: the measured parts of each kind's median job.
  const double launch = process ? spawn_ms : lease_ms;
  const std::uint32_t steps_per_rank =
      (wp.sweep_steps + static_cast<std::uint32_t>(ranks) - 1) /
      static_cast<std::uint32_t>(ranks);
  const std::map<JobKind, double> compute = {
      {JobKind::kSandpile, compute_ms},
      {JobKind::kDmr, dmr_ms},
      {JobKind::kWfsim, simulate_ms * steps_per_rank}};
  const std::map<JobKind, double> comm = {
      {JobKind::kSandpile, process ? halo_ms : 0},
      {JobKind::kDmr, process ? shuffle_ms : 0},
      {JobKind::kWfsim, 0}};
  TextTable attribution({"kind", "job p50 ms", "svc overhead", "lease/spawn",
                         "compute", "halo/shuffle", "checkpoint",
                         "attributed"});
  for (const JobKind kind : kKinds) {
    const double ck = ckpt.count(kind) ? ckpt[kind].per_cut_ms * ckpt[kind].per_job : 0;
    const double parts = overhead[kind] + launch + compute.at(kind) +
                         comm.at(kind) + ck;
    const double frac = parts / p50[kind];
    out.add(std::string("bench.attributed_frac.") + svc::to_string(kind), frac,
            "ratio");
    attribution.row({svc::to_string(kind), TextTable::num(p50[kind]),
                     TextTable::num(overhead[kind]), TextTable::num(launch),
                     TextTable::num(compute.at(kind)),
                     TextTable::num(comm.at(kind)), TextTable::num(ck),
                     TextTable::num(frac, 3) +
                         (std::abs(frac - 1) <= 0.1 ? "" : "  MISS (>10%)")});
  }
  std::cout << "\nattribution of " << w.name
            << " (parts measured by direct layer calls; target within 10% of 1)\n";
  attribution.print(std::cout);

  // ---- containment price: where a median job's time goes. Submit is the
  // client's own measurement; commit is the RUNNING and DONE record puts;
  // queue wait + polling is what is left of the median.
  TextTable split({"kind", "submit", "queue+poll", process ? "spawn" : "lease",
                   "body", "commit", "job p50 ms"});
  for (const JobKind kind : kKinds) {
    const double submit = median(submit_by_kind[kind]);
    const double body = median(run_job_ms[kind]) - launch;
    const double commit = 2 * store_put;
    split.row({svc::to_string(kind), TextTable::num(submit),
               TextTable::num(p50[kind] - submit - launch - body - commit),
               TextTable::num(launch), TextTable::num(body),
               TextTable::num(commit), TextTable::num(p50[kind])});
  }
  std::cout << "\ncontainment price on " << w.name << " (ms per job, "
            << svc::to_string(w.isolation) << " isolation)\n";
  split.print(std::cout);
  std::cout << "\n";
  std::filesystem::remove_all(ctx.scratch_dir);
}

}  // namespace perfbench

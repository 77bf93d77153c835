// Machine-model validation harness: calibrate the hierarchical platform
// description from real transport telemetry, then check its predictions
// against workloads it was NOT fitted on.
//
// Phase 1 runs the distributed sandpile's halo exchange over real loopback
// TCP at several halo depths; each run's net.delivery_ns / net.frame_bytes
// histograms become one calibration point, and machine::from_measurements
// fits the NIC/fabric edges (delivery = latency + bytes/bandwidth, least
// squares). One sweep's fit is noisy on a loaded host, so three fitted
// sweeps are kept, each fit is printed with the spread, and the fit with
// the median bandwidth is the one validated. A sweep whose fit is rejected
// (delivery time not growing with frame size) is reported and replaced, up
// to three times. Phase 2 replays held-out workloads — a ghost-cell sweep
// at an unseen halo depth and dmr shuffle jobs — and compares the model's
// predicted transfer time against the transport's measured one-way
// delivery total. The acceptance bar is 25% per workload
// (DESIGN.md). Phase 3 extrapolates:
// the calibrated machine predicts transfers and a contended 4-flow halo
// round no measurement was taken for.
//
// Results land in out/BENCH_machine.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/table.hpp"
#include "dmr/job.hpp"
#include "machine/calibrate.hpp"
#include "machine/codec.hpp"
#include "machine/simulate.hpp"
#include "mpp/mpp.hpp"
#include "obs/obs.hpp"
#include "sandpile/field.hpp"
#include "sandpile/distributed.hpp"

namespace {

using namespace peachy;

// The machine being calibrated: every mpp rank is one node of a loopback
// "cluster". On-node edges are free and infinitely wide so the NIC/fabric
// fit is the only thing the predictions depend on.
machine::Machine loopback_machine() {
  machine::NodeGroup g;
  g.name = "loopback";
  g.nodes = 4;
  g.sockets_per_node = 1;
  g.cores_per_socket = 1;
  g.core_gflops = 1.0;
  g.l3 = {1e15, 0.0};
  g.membus = {1e15, 0.0};
  g.nic = {1e9, 1e-6};  // placeholder; replaced by from_measurements
  machine::Machine m;
  m.groups.push_back(g);
  m.fabric = {1e9, 0.0};
  return m;
}

// Runs `body` with a freshly reset global metric registry and returns the
// snapshot it produced — one observed operating point.
template <typename Body>
std::vector<obs::MetricSample> observed_run(Body&& body) {
  obs::Registry::global().reset();
  body();
  return obs::Registry::global().samples();
}

void ghost_cells_tcp(const sandpile::Field& initial, int ranks, int halo) {
  sandpile::DistributedOptions opt;
  opt.ranks = ranks;
  opt.halo_depth = halo;
  opt.run.transport = mpp::TransportKind::kTcp;
  sandpile::stabilize_distributed(initial, opt);
}

using InputPair = std::pair<int, std::string>;

std::vector<InputPair> word_corpus(int lines) {
  const char* words[] = {"peach", "stripe", "rank",  "shuffle",
                         "spill", "merge",  "epoch", "reduce"};
  std::vector<InputPair> inputs;
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < 9; ++w) {
      if (w) line += ' ';
      line += words[(i * 3 + w * 5) % 8];
    }
    inputs.emplace_back(i, line);
  }
  return inputs;
}

// A shuffle-dominated dmr job over TCP: whole lines travel as values and
// mapping/reducing are near-free, so the telemetry is almost pure shuffle.
// `epochs` map epochs split the same traffic across that many exchange
// barriers — more, smaller frames, keeping the coalesced frame size inside
// the regime the calibration swept (per-byte cost on a real host is not
// constant across regimes: MB-sized frames fall out of cache and cost
// roughly twice as much per byte as the ≤16 KB frames fitted here).
void dmr_shuffle_tcp(int ranks, int lines, int epochs) {
  dmr::Job<int, std::string, std::string, std::string, std::string,
           std::uint64_t>
      job;
  job.mapper([](const int& id, const std::string& line,
                mr::Emitter<std::string, std::string>& out) {
    out.emit(std::to_string(id % 64), line);
  });
  job.reducer([](const std::string& key,
                 const std::vector<std::string>& values,
                 mr::Emitter<std::string, std::uint64_t>& out) {
    std::uint64_t total = 0;
    for (const std::string& v : values) total += v.size();
    out.emit(key, total);
  });
  dmr::Options opt;
  opt.ranks = ranks;
  opt.run.transport = mpp::TransportKind::kTcp;
  opt.map_workers = 1;
  opt.reduce_workers = 1;
  opt.map_tasks = 8;
  opt.map_epochs = epochs;
  opt.partitions = 2 * ranks;
  job.options(std::move(opt));
  job.run(word_corpus(lines));
}

// Measured vs predicted for one held-out workload snapshot. The transport's
// one-way delivery total is ground truth; the prediction routes the run's
// mean frame through the calibrated machine once per observed frame.
// `flows` is the workload's concurrent flow count: calibration ran
// bidirectional 2-rank exchanges (2 flows), so a workload with F flows
// fair-shares the fitted bandwidth at F/2 of the calibration conditions.
struct Validation {
  std::string name;
  int flows = 2;
  bool counted = true;  ///< false = informational row, outside the bar
  std::uint64_t frames = 0;
  double mean_bytes = 0.0;
  double measured_s = 0.0;
  double predicted_s = 0.0;
  double error_pct = 0.0;
};

Validation validate(const machine::Machine& m, std::string name,
                    const std::vector<obs::MetricSample>& snapshot,
                    int flows = 2, bool counted = true) {
  Validation v;
  v.name = std::move(name);
  v.flows = flows;
  v.counted = counted;
  const machine::CalibrationPoint p = machine::calibration_point(snapshot);
  v.frames = p.frames;
  v.mean_bytes = p.mean_frame_bytes;
  v.measured_s = p.mean_delivery_s * static_cast<double>(p.frames);
  // One way per frame: the route latency plus the stream time, with the
  // stream fair-shared across the workload's flows.
  // predict_transfer_s(…, 0) is exactly the route latency.
  const machine::CoreId src{0, 0, 0, 0};
  const machine::CoreId dst{0, 1, 0, 0};
  const double latency_s = machine::predict_transfer_s(m, src, dst, 0.0);
  const double stream_s =
      machine::predict_transfer_s(m, src, dst, p.mean_frame_bytes) -
      latency_s;
  v.predicted_s = static_cast<double>(p.frames) *
                  (latency_s + stream_s * flows / 2.0);
  v.error_pct = 100.0 * std::abs(v.predicted_s - v.measured_s) /
                v.measured_s;
  return v;
}

}  // namespace

int main() {
  std::filesystem::create_directories("out");
  obs::set_enabled(true);  // instrumentation sites are gated off by default
  constexpr double kTargetPct = 25.0;

  // ---- Phase 1: calibration runs. All at 2 TCP ranks; the grid width
  // sets the halo-frame size, so sweeping width x halo depth spans frame
  // sizes from ~300 B to ~17 KB — wide enough that every validation
  // workload's mean frame interpolates instead of extrapolating.
  constexpr int kSize = 128;
  const sandpile::Field initial = sandpile::center_pile(kSize, kSize, 20000);
  const sandpile::Field wide = sandpile::center_pile(64, 1024, 30000);
  std::cout << "machine-model calibration — ghost-cell halo exchange over "
               "loopback TCP, 2 ranks, frame size swept via grid width x "
               "halo depth, 3 sweeps\n\n";

  const struct {
    const sandpile::Field* field;
    const char* label;
    int halo;
  } runs[] = {{&initial, "128x128", 1}, {&initial, "128x128", 2},
              {&initial, "128x128", 4}, {&initial, "128x128", 8},
              {&wide, "64x1024", 2},    {&wide, "64x1024", 4},
              {&wide, "64x1024", 8}};
  struct Sweep {
    std::vector<std::vector<obs::MetricSample>> snapshots;
    std::vector<machine::CalibrationPoint> points;
    machine::LinkFit fit;
  };
  constexpr int kSweeps = 3;
  constexpr int kExtraSweeps = 3;  // replacements for rejected fits
  std::vector<Sweep> sweeps;
  for (int attempt = 1;
       static_cast<int>(sweeps.size()) < kSweeps &&
       attempt <= kSweeps + kExtraSweeps;
       ++attempt) {
    Sweep sweep;
    for (const auto& r : runs) {
      sweep.snapshots.push_back(
          observed_run([&] { ghost_cells_tcp(*r.field, 2, r.halo); }));
      sweep.points.push_back(
          machine::calibration_point(sweep.snapshots.back()));
    }
    try {
      sweep.fit = machine::fit_link(sweep.points);
    } catch (const Error& e) {
      std::cout << "sweep attempt " << attempt
                << " rejected: " << e.what() << "\n";
      continue;
    }
    sweeps.push_back(std::move(sweep));
  }
  if (static_cast<int>(sweeps.size()) < kSweeps) {
    std::cerr << "calibration failed: only " << sweeps.size() << " of "
              << kSweeps << " sweeps fitted in " << kSweeps + kExtraSweeps
              << " attempts\n";
    return 1;
  }
  // Validate against the median-bandwidth fit: one outlier sweep (a noisy
  // neighbour during it) can no longer decide the verdict.
  std::vector<int> order(kSweeps);
  for (int i = 0; i < kSweeps; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sweeps[static_cast<std::size_t>(a)].fit.link.bytes_per_s <
           sweeps[static_cast<std::size_t>(b)].fit.link.bytes_per_s;
  });
  const int chosen = order[kSweeps / 2];
  const Sweep& median = sweeps[static_cast<std::size_t>(chosen)];

  TextTable cal(
      {"grid", "halo k", "frames", "mean bytes", "mean delivery us"});
  for (std::size_t i = 0; i < median.points.size(); ++i) {
    const machine::CalibrationPoint& p = median.points[i];
    cal.row({runs[i].label,
             TextTable::num(static_cast<std::int64_t>(runs[i].halo)),
             TextTable::num(static_cast<std::int64_t>(p.frames)),
             TextTable::num(p.mean_frame_bytes, 0),
             TextTable::num(p.mean_delivery_s * 1e6, 1)});
  }
  std::cout << "calibration points of the median sweep (sweep "
            << chosen + 1 << " of " << kSweeps << "):\n";
  cal.print(std::cout);

  TextTable fits({"sweep", "MB/s", "latency us", "max residual us"});
  for (int i = 0; i < kSweeps; ++i) {
    const machine::LinkFit& f = sweeps[static_cast<std::size_t>(i)].fit;
    fits.row({std::to_string(i + 1) + (i == chosen ? " (median)" : ""),
              TextTable::num(f.link.bytes_per_s / 1e6, 1),
              TextTable::num(f.link.latency_s * 1e6, 1),
              TextTable::num(f.max_residual_s * 1e6, 1)});
  }
  std::cout << "\nper-sweep NIC fits:\n";
  fits.print(std::cout);
  const machine::LinkFit& lo = sweeps[static_cast<std::size_t>(order[0])].fit;
  const machine::LinkFit& hi =
      sweeps[static_cast<std::size_t>(order[kSweeps - 1])].fit;
  std::cout << "bandwidth spread "
            << TextTable::num(lo.link.bytes_per_s / 1e6, 1) << " .. "
            << TextTable::num(hi.link.bytes_per_s / 1e6, 1)
            << " MB/s (max/min "
            << TextTable::num(hi.link.bytes_per_s / lo.link.bytes_per_s, 2)
            << "x)\n";

  const machine::LinkFit& fit = median.fit;
  const machine::Machine mach =
      machine::from_measurements(loopback_machine(), median.snapshots);
  std::cout << "\nfitted NIC (median sweep): "
            << TextTable::num(fit.link.bytes_per_s / 1e6, 1) << " MB/s, "
            << TextTable::num(fit.link.latency_s * 1e6, 1)
            << " us one-way latency (max residual "
            << TextTable::num(fit.max_residual_s * 1e6, 1) << " us over "
            << fit.points << " points)\n";

  // ---- Phase 2: held-out validation. None of these runs fed the fit.
  // Ghost-cell flows: a halo exchange keeps both directions of every
  // interior boundary in flight — 2*(ranks-1) flows. Dmr shuffle is
  // all-to-all: ranks*(ranks-1) flows.
  std::cout << "\n== validation: predicted vs measured transfer time ==\n";
  std::vector<Validation> checks;
  checks.push_back(validate(
      mach, "ghost-cell 2 ranks k=3",
      observed_run([&] { ghost_cells_tcp(initial, 2, 3); })));
  checks.push_back(validate(
      mach, "ghost-cell 2 ranks k=6 wide",
      observed_run([&] { ghost_cells_tcp(wide, 2, 6); })));
  // Informational: at 4 ranks the measured times also absorb host-scheduler
  // contention (8 rank + transport threads), which the link model does not
  // describe — reported to show the flow-scaling trend, not gated.
  checks.push_back(validate(
      mach, "ghost-cell 4 ranks k=2 (info)",
      observed_run([&] { ghost_cells_tcp(initial, 4, 2); }), 6,
      /*counted=*/false));
  // Several repetitions accumulate into one snapshot for stable means. The
  // corpus is sized so a single map epoch coalesces each rank pair's
  // shuffle into one mid-span block per direction.
  checks.push_back(validate(mach, "dmr shuffle 2 ranks", observed_run([&] {
                              for (int i = 0; i < 24; ++i)
                                dmr_shuffle_tcp(2, 2000, 1);
                            }),
                            2));
  // Informational: the 12-flow all-to-all also absorbs scheduler
  // contention from 4x(rank+transport) threads — reported to show the
  // flow-scaling trend, not gated.
  checks.push_back(validate(mach, "dmr shuffle 4 ranks (info)",
                            observed_run([&] {
                              for (int i = 0; i < 8; ++i)
                                dmr_shuffle_tcp(4, 6000, 1);
                            }),
                            12, /*counted=*/false));

  bool all_within = true;
  TextTable val({"workload", "flows", "frames", "mean bytes", "measured ms",
                 "predicted ms", "error %", "within 25%"});
  for (const Validation& v : checks) {
    const bool ok = v.error_pct <= kTargetPct;
    if (v.counted) all_within = all_within && ok;
    val.row({v.name, TextTable::num(static_cast<std::int64_t>(v.flows)),
             TextTable::num(static_cast<std::int64_t>(v.frames)),
             TextTable::num(v.mean_bytes, 0),
             TextTable::num(v.measured_s * 1e3, 2),
             TextTable::num(v.predicted_s * 1e3, 2),
             TextTable::num(v.error_pct, 1),
             !v.counted ? (ok ? "yes (info)" : "no (info)")
                        : (ok ? "yes" : "NO")});
  }
  val.print(std::cout);
  std::cout << (all_within
                    ? "all gated workloads within the 25% acceptance bar\n"
                    : "ACCEPTANCE FAILED: a workload missed the 25% bar\n");

  // ---- Phase 3: extrapolation — what the calibrated machine says about
  // runs nobody measured.
  std::cout << "\n== extrapolation on the calibrated machine ==\n";
  TextTable extra({"transfer", "predicted ms"});
  const machine::CoreId c0{0, 0, 0, 0};
  for (const double mb : {1.0, 16.0, 256.0}) {
    extra.row({TextTable::num(mb, 0) + " MB cross-node",
               TextTable::num(machine::predict_transfer_s(
                                  mach, c0, {0, 1, 0, 0}, mb * 1e6) *
                                  1e3,
                              2)});
  }
  // A contended halo round: four flows ring-exchange 1 MB at once; the
  // shared fabric fair-shares, so this is slower than one uncontended flow.
  machine::Dag ring;
  for (int n = 0; n < 4; ++n)
    ring.tasks.push_back({0.0, {0, n, 0, 0}, {}});
  for (int n = 0; n < 4; ++n) {
    ring.tasks.push_back({0.0, {0, (n + 1) % 4, 0, 0}, {}});
    ring.transfers.push_back({n, 4 + n, 1e6});
  }
  const machine::Report ring_report = machine::simulate(mach, ring);
  extra.row({"4-flow 1 MB ring exchange",
             TextTable::num(ring_report.makespan_s * 1e3, 2)});
  extra.print(std::cout);

  // ---- JSON record.
  json::Object doc;
  json::Object fitted;
  fitted["bytes_per_s"] = json::Value(fit.link.bytes_per_s);
  fitted["latency_s"] = json::Value(fit.link.latency_s);
  fitted["max_residual_s"] = json::Value(fit.max_residual_s);
  fitted["points"] = json::Value(static_cast<std::int64_t>(fit.points));
  doc["fit"] = json::Value(std::move(fitted));
  json::Array sweep_rows;
  for (const Sweep& sweep : sweeps) {
    json::Object row;
    row["bytes_per_s"] = json::Value(sweep.fit.link.bytes_per_s);
    row["latency_s"] = json::Value(sweep.fit.link.latency_s);
    row["max_residual_s"] = json::Value(sweep.fit.max_residual_s);
    sweep_rows.push_back(json::Value(std::move(row)));
  }
  doc["sweep_fits"] = json::Value(std::move(sweep_rows));
  doc["chosen_sweep"] = json::Value(static_cast<std::int64_t>(chosen));
  json::Array cal_rows;
  for (const machine::CalibrationPoint& p : median.points) {
    json::Object row;
    row["frames"] = json::Value(static_cast<std::int64_t>(p.frames));
    row["mean_frame_bytes"] = json::Value(p.mean_frame_bytes);
    row["mean_delivery_s"] = json::Value(p.mean_delivery_s);
    cal_rows.push_back(json::Value(std::move(row)));
  }
  doc["calibration_points"] = json::Value(std::move(cal_rows));
  json::Array val_rows;
  for (const Validation& v : checks) {
    json::Object row;
    row["workload"] = json::Value(v.name);
    row["frames"] = json::Value(static_cast<std::int64_t>(v.frames));
    row["mean_frame_bytes"] = json::Value(v.mean_bytes);
    row["measured_s"] = json::Value(v.measured_s);
    row["predicted_s"] = json::Value(v.predicted_s);
    row["flows"] = json::Value(static_cast<std::int64_t>(v.flows));
    row["gated"] = json::Value(v.counted);
    row["error_pct"] = json::Value(v.error_pct);
    row["within_target"] = json::Value(v.error_pct <= kTargetPct);
    val_rows.push_back(json::Value(std::move(row)));
  }
  doc["validation"] = json::Value(std::move(val_rows));
  doc["target_error_pct"] = json::Value(kTargetPct);
  doc["all_within_target"] = json::Value(all_within);
  doc["ring_exchange_makespan_s"] = json::Value(ring_report.makespan_s);
  std::ofstream("out/BENCH_machine.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  // The calibrated description itself, ready for --platform on the CLI
  // drivers: predict runs nobody measured on the machine just fitted.
  machine::save_machine(mach, "out/machine_calibrated.json");
  std::cout << "\nwrote out/BENCH_machine.json and "
               "out/machine_calibrated.json\n";
  return all_within ? 0 : 1;
}

// Overhead of the obs layer: on the sandpile omp-tiled kernel, and on a
// spawned 4-rank world over the pipelined tcp transport.
//
// The acceptance contract for src/obs is "near-zero when disabled, cheap
// when enabled": every instrumentation site is gated on one relaxed atomic
// load, so the disabled path must be indistinguishable from uninstrumented
// code. Instrumentation cannot be compiled out per-run, so the
// uninstrumented baseline is approximated by a gate-off series; a second,
// independently sampled gate-off series ("disabled") is interleaved with
// it rep by rep, so the baseline-vs-disabled delta both bounds the
// measurement noise and demonstrates the disabled gate costs nothing
// beyond it. The "enabled" series runs with the registry and tracer live.
//
// The cluster case measures the distributed tier on top: a 4-rank spawned
// ring exchange where "enabled" adds per-message trace contexts on the
// wire plus span/counter recording, and "aggregation" further ships
// periodic metric snapshots to rank 0 over the telemetry channel.
//
// Thresholds (DESIGN.md "Observability"): disabled <= 2% over baseline,
// enabled <= 10%; telemetry aggregation <= 3% on top of enabled. Writes
// out/BENCH_obs.json for regression tracking.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/json.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "mpp/mpp.hpp"
#include "obs/obs.hpp"
#include "sandpile/field.hpp"
#include "sandpile/variants.hpp"

namespace {

using namespace peachy;
using namespace peachy::sandpile;

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// The cluster workload: every rank pushes fixed-size payloads around a
// 4-rank ring for a fixed round count — pure transport pressure through
// the tcp send path, with a Comm-level context mint per message when
// telemetry is on.
constexpr int kClusterRanks = 4;
constexpr int kClusterRounds = 150;
constexpr std::size_t kPayloadInts = 8192;  // 64 KiB per message

void ring_exchange(mpp::Comm& comm) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  std::vector<std::int64_t> out(kPayloadInts, comm.rank());
  std::vector<std::int64_t> in(kPayloadInts);
  for (int round = 0; round < kClusterRounds; ++round) {
    comm.send(next, 1, out.data(), out.size());
    comm.recv(prev, 1, in.data(), in.size());
  }
}

/// One spawned 4-rank run under the given telemetry policy; returns wall
/// ns including spawn + rendezvous (identical across the three series).
double timed_cluster_run(const mpp::Telemetry& telemetry) {
  WallTimer timer;
  mpp::run_world(kClusterRanks,
                 {.transport = mpp::TransportKind::kTcp,
                  .spawn = true,
                  .telemetry = telemetry},
                 ring_exchange);
  return static_cast<double>(timer.elapsed_ns());
}

}  // namespace

int main() {
  // Tile size matters: the tracer pays a fixed ~quarter-microsecond per
  // tile event, so the budget is stated against the assignment's realistic
  // geometry (64^2 tiles = 4096 cells of stencil work each), not against
  // degenerate tiles whose compute is smaller than a timestamp.
  constexpr int kSize = 512;
  constexpr Cell kGrains = 25000;
  constexpr int kIterations = 64;  // fixed cap: identical work in every rep
  constexpr int kReps = 15;

  const Field initial = center_pile(kSize, kSize, kGrains);
  VariantOptions opt;
  opt.tile_h = opt.tile_w = 64;
  opt.max_iterations = kIterations;

  const auto timed_run = [&]() -> double {
    Field field = initial;  // copied outside the timer
    WallTimer timer;
    run_variant(Variant::kOmpTiledSync, field, opt);
    return static_cast<double>(timer.elapsed_ns());
  };

  // Warm up threads, pages and the obs singletons.
  obs::set_enabled(true);
  timed_run();
  obs::set_enabled(false);
  timed_run();

  std::vector<double> baseline, disabled, enabled;
  for (int r = 0; r < kReps; ++r) {
    // Interleaved so drift (turbo, thermals) hits all three series alike,
    // and baseline/disabled alternate positions so neither systematically
    // inherits the other's cache state.
    obs::set_enabled(false);
    const double first = timed_run();
    const double second = timed_run();
    baseline.push_back(r % 2 ? second : first);
    disabled.push_back(r % 2 ? first : second);
    obs::set_enabled(true);
    enabled.push_back(timed_run());
    obs::Tracer::global().clear();  // bound memory between enabled reps
  }
  obs::set_enabled(false);

  const double baseline_ms = median(baseline) / 1e6;
  const double disabled_ms = median(disabled) / 1e6;
  const double enabled_ms = median(enabled) / 1e6;
  const double disabled_pct = (disabled_ms / baseline_ms - 1.0) * 100.0;
  const double enabled_pct = (enabled_ms / baseline_ms - 1.0) * 100.0;

  std::cout << "obs overhead on omp-tiled sandpile, " << kSize << "x" << kSize
            << ", " << kIterations << " iterations (median of " << kReps
            << ")\n";
  TextTable table({"mode", "wall ms", "vs baseline"});
  table.row({"baseline (gate off)", TextTable::num(baseline_ms, 2), "—"});
  table.row({"disabled (gate off)", TextTable::num(disabled_ms, 2),
             TextTable::num(disabled_pct, 2) + "%"});
  table.row({"enabled", TextTable::num(enabled_ms, 2),
             TextTable::num(enabled_pct, 2) + "%"});
  table.print(std::cout);
  std::cout << "contract: disabled <= 2%, enabled <= 10%  ->  "
            << (disabled_pct <= 2.0 && enabled_pct <= 10.0 ? "OK" : "EXCEEDED")
            << "\n";

  // --- Cluster tier: spawned ranks over the pipelined tcp transport ------
  mpp::Telemetry off;  // baseline: obs gate off in every rank
  mpp::Telemetry on;   // contexts on the wire + recording, no shipping
  on.enabled = true;
  on.interval_ms = 1 << 30;  // periodic shipper never fires; one final snap
  mpp::Telemetry shipping = on;  // + periodic metric snapshots to rank 0
  shipping.interval_ms = 25;

  constexpr int kClusterReps = 9;
  timed_cluster_run(off);  // warm the page cache / listen queue path
  std::vector<double> cl_base, cl_enabled, cl_shipping;
  for (int r = 0; r < kClusterReps; ++r) {
    cl_base.push_back(timed_cluster_run(off));
    cl_enabled.push_back(timed_cluster_run(on));
    cl_shipping.push_back(timed_cluster_run(shipping));
  }

  const double cl_base_ms = median(cl_base) / 1e6;
  const double cl_enabled_ms = median(cl_enabled) / 1e6;
  const double cl_shipping_ms = median(cl_shipping) / 1e6;
  const double cl_enabled_pct = (cl_enabled_ms / cl_base_ms - 1.0) * 100.0;
  const double cl_agg_pct = (cl_shipping_ms / cl_enabled_ms - 1.0) * 100.0;

  std::cout << "\nobs overhead on a spawned " << kClusterRanks
            << "-rank tcp ring, " << kClusterRounds << " rounds x "
            << kPayloadInts * sizeof(std::int64_t) / 1024
            << " KiB (median of " << kClusterReps << ")\n";
  TextTable cluster({"mode", "wall ms", "vs previous"});
  cluster.row({"telemetry off", TextTable::num(cl_base_ms, 2), "—"});
  cluster.row({"enabled (ctx + spans)", TextTable::num(cl_enabled_ms, 2),
               TextTable::num(cl_enabled_pct, 2) + "%"});
  cluster.row({"+ aggregation (25 ms)", TextTable::num(cl_shipping_ms, 2),
               TextTable::num(cl_agg_pct, 2) + "%"});
  cluster.print(std::cout);
  std::cout << "contract: enabled <= 10%, aggregation <= 3% on top  ->  "
            << (cl_enabled_pct <= 10.0 && cl_agg_pct <= 3.0 ? "OK"
                                                            : "EXCEEDED")
            << "\n";

  json::Object doc;
  doc["kernel"] = json::Value("omp-tiled-sync");
  doc["size"] = json::Value(static_cast<std::int64_t>(kSize));
  doc["iterations"] = json::Value(static_cast<std::int64_t>(kIterations));
  doc["reps"] = json::Value(static_cast<std::int64_t>(kReps));
  doc["baseline_ms"] = json::Value(baseline_ms);
  doc["disabled_ms"] = json::Value(disabled_ms);
  doc["enabled_ms"] = json::Value(enabled_ms);
  doc["disabled_overhead_pct"] = json::Value(disabled_pct);
  doc["enabled_overhead_pct"] = json::Value(enabled_pct);
  json::Object cl;
  cl["ranks"] = json::Value(static_cast<std::int64_t>(kClusterRanks));
  cl["rounds"] = json::Value(static_cast<std::int64_t>(kClusterRounds));
  cl["payload_bytes"] = json::Value(
      static_cast<std::int64_t>(kPayloadInts * sizeof(std::int64_t)));
  cl["reps"] = json::Value(static_cast<std::int64_t>(kClusterReps));
  cl["baseline_ms"] = json::Value(cl_base_ms);
  cl["enabled_ms"] = json::Value(cl_enabled_ms);
  cl["aggregation_ms"] = json::Value(cl_shipping_ms);
  cl["enabled_overhead_pct"] = json::Value(cl_enabled_pct);
  cl["aggregation_overhead_pct"] = json::Value(cl_agg_pct);
  doc["cluster"] = json::Value(std::move(cl));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_obs.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_obs.json\n";
  return 0;
}

// Warming stripes end-to-end: the full §III data-science workflow.
//
//  (1) data acquisition   — synthesize the DWD-like dataset and write the
//                           12 month-major files to out/dwd/;
//  (2) pre-processing     — read them back, inject the "download made in
//                           late 2020" gap (missing winter months);
//  (3) analysis           — annual Germany means via the MapReduce engine
//                           (typed job) and the Hadoop-streaming flavor,
//                           cross-checked against a sequential reference;
//  (4) result validation  — detect incomplete years and show the warm bias
//                           a naive average would report.
//
// Writes out/warming_stripes.ppm (Fig. 6) and a biased variant.
//
// Distributed mode (the dmr engine): --ranks N runs the annual-means job
// across N ranks, --transport inproc|tcp picks the wire, --spawn forks
// real worker processes, --spill-bytes B caps the per-rank shuffle buffer
// (forcing the external sort to disk), and --sever-after K severs the wire
// after K frames to demonstrate checkpoint/respawn recovery (see README
// "Distributed Warming Stripes").
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "climate/analytics.hpp"
#include "climate/dwd.hpp"
#include "climate/pipeline.hpp"
#include "climate/stripes.hpp"
#include "core/args.hpp"
#include "core/table.hpp"
#include "mapreduce/io.hpp"

int main(int argc, char** argv) {
  using namespace peachy;
  using namespace peachy::climate;

  const Args args(argc, argv, {"spawn"});
  const auto unknown = args.unknown_options(
      {"ranks", "transport", "spawn", "spill-bytes", "sever-after",
       "trace", "metrics-port", "metrics-port-file"});
  if (!unknown.empty()) {
    std::cerr << "unknown option --" << unknown.front()
              << " (try --ranks N --transport inproc|tcp --spawn "
                 "--spill-bytes B --sever-after K "
                 "--trace FILE --metrics-port P --metrics-port-file FILE)\n";
    return 2;
  }
  std::filesystem::create_directories("out/dwd");

  // (1) Data acquisition.
  DwdModelParams params;  // 1881-2019, calibrated to Fig. 6
  const MonthlyDataset source = synthesize_dwd(params);
  write_month_major(source, "out/dwd");
  std::cout << "wrote 12 month-major files to out/dwd/ ("
            << source.present_count() << " observations)\n";

  // (2) Pre-processing: read back; simulate the late-2020 download gap on a
  // copy extended through 2020.
  MonthlyDataset data = read_month_major("out/dwd", params.first_year,
                                         params.last_year);

  // (3a) Distributed analysis first when requested: --spawn forks worker
  // processes, which must happen before the typed pipelines below create
  // the process-shared task arena (threads do not survive fork).
  const int ranks = args.get_int("ranks", 0);
  if (ranks > 0) {
    DmrPipelineConfig dcfg;
    dcfg.options.ranks = ranks;
    dcfg.options.run.transport =
        mpp::transport_from_string(args.get("transport", "inproc"));
    dcfg.options.run.spawn = args.has("spawn");
    dcfg.options.map_workers = 2;
    dcfg.options.reduce_workers = 2;
    dcfg.options.spill_buffer_bytes =
        static_cast<std::size_t>(args.get_int("spill-bytes", 0));
    // Cluster telemetry (README "Watching a cluster run"): --trace writes
    // one merged clock-corrected Perfetto trace; --metrics-port serves the
    // rank-labeled Prometheus rollup live at /metrics while the job runs.
    const std::string trace_path = args.get("trace", "");
    const int metrics_port = args.get_int("metrics-port", -1);
    if (!trace_path.empty() || metrics_port >= 0) {
      dcfg.options.run.telemetry.enabled = true;
      dcfg.options.run.telemetry.trace_path = trace_path;
      dcfg.options.run.telemetry.metrics_port = metrics_port;
      dcfg.options.run.telemetry.port_file =
          args.get("metrics-port-file", "");
    }
    const int sever_after = args.get_int("sever-after", 0);
    if (sever_after > 0) {
      // Kill-and-recover demo: sever the wire mid-shuffle; the supervisor
      // respawns the world and restores the last committed map epoch.
      dcfg.options.map_epochs = 4;
      dcfg.options.checkpoint_every = 1;
      dcfg.options.run.spawn = true;
      dcfg.options.run.transport = mpp::TransportKind::kTcp;
      dcfg.options.run.resilience.max_restarts = 3;
      dcfg.options.run.tcp.fault.sever_after = sever_after;
    }
    const AnnualSeries dmr_series = annual_means_dmr(data, dcfg);
    const DmrPipelineStats& stats = last_dmr_stats();
    TextTable dmr_table({"dmr", "value"});
    dmr_table.row({"ranks", TextTable::num(static_cast<std::int64_t>(ranks))});
    dmr_table.row({"transport",
                   std::string(mpp::to_string(dcfg.options.run.transport)) +
                       (dcfg.options.run.spawn ? " (spawned)" : "")});
    dmr_table.row({"shuffle records",
                   TextTable::num(static_cast<std::int64_t>(
                       stats.counters.shuffle_records))});
    dmr_table.row({"shuffle bytes (cross-rank)",
                   TextTable::num(static_cast<std::int64_t>(
                       stats.counters.shuffle_bytes))});
    dmr_table.row({"spill runs", TextTable::num(static_cast<std::int64_t>(
                                     stats.counters.spill.spills))});
    dmr_table.row({"world restarts",
                   TextTable::num(static_cast<std::int64_t>(stats.restarts))});
    dmr_table.print(std::cout);
    render_stripes(dmr_series).write_ppm("out/warming_stripes_dmr.ppm");
    std::cout << "wrote out/warming_stripes_dmr.ppm (distributed, " << ranks
              << " ranks)\n\n";
  }

  // (3) Analysis with MapReduce (typed engine, 4 mappers / 2 reducers).
  PipelineConfig cfg;
  cfg.map_workers = 4;
  cfg.reduce_workers = 2;
  const AnnualSeries mr_series = annual_means_mapreduce(data, cfg);
  const AnnualSeries reference = annual_means_reference(data);
  const AnnualSeries streaming = annual_means_streaming(
      month_major_all_lines(data), params.first_year, params.last_year, {});

  double max_diff = 0;
  for (std::size_t i = 0; i < mr_series.mean_c.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(mr_series.mean_c[i] - reference.mean_c[i]));
    max_diff = std::max(max_diff,
                        std::abs(streaming.mean_c[i] - reference.mean_c[i]));
  }
  const auto& counters = last_pipeline_counters();
  TextTable table({"phase", "value"});
  table.row({"map inputs (lines)", TextTable::num(static_cast<std::int64_t>(
                                       counters.map_inputs))});
  table.row({"map outputs", TextTable::num(static_cast<std::int64_t>(
                                counters.map_outputs))});
  table.row({"shuffled records (combiner on)",
             TextTable::num(static_cast<std::int64_t>(
                 counters.shuffle_records))});
  table.row({"reduce groups (years)", TextTable::num(static_cast<std::int64_t>(
                                          counters.groups))});
  table.row({"max |MapReduce - reference| (°C)", TextTable::num(max_diff, 9)});
  table.row({"overall mean (°C)", TextTable::num(mr_series.overall_mean(), 2)});
  table.row({"colorbar", TextTable::num(mr_series.overall_mean() - 1.5, 2) +
                             " .. " +
                             TextTable::num(mr_series.overall_mean() + 1.5, 2)});
  table.print(std::cout);

  // (4) Validation: what happens if the last year's winter is missing?
  MonthlyDataset gappy = data;
  drop_months(gappy, params.last_year, 11, 12);
  const ValidationReport report = validate(gappy);
  const AnnualSeries biased = annual_means_reference(gappy);
  const std::size_t last = biased.mean_c.size() - 1;
  std::cout << "\nvalidation: " << report.incomplete_years.size()
            << " incomplete year(s), " << report.missing_cells
            << " missing cells\n";
  std::cout << "naive mean of " << params.last_year
            << " without Nov+Dec: " << biased.mean_c[last]
            << " °C vs true " << reference.mean_c[last]
            << " °C (warm bias: +"
            << biased.mean_c[last] - reference.mean_c[last] << " °C)\n";

  // Render Fig. 6 (and the biased rendering that ignores the gap).
  StripesSpec spec;
  render_stripes(mr_series, spec).write_ppm("out/warming_stripes.ppm");
  spec.grey_incomplete = false;
  render_stripes(biased, spec).write_ppm("out/warming_stripes_biased.ppm");
  std::cout << "\nwrote out/warming_stripes.ppm ("
            << mr_series.mean_c.size() << " stripes, " << params.first_year
            << "-" << params.last_year << ") and the biased variant\n";

  // --- Follow-up analytics (the course's "later assignments"): per-state
  // stripes, warming trends via regression-in-MapReduce, top-5 warmest
  // years via job chaining.
  const StateAnnualSeries per_state = state_annual_means_mapreduce(data, 4, 2);
  render_state_stripes(per_state).write_ppm("out/state_stripes.ppm");
  std::cout << "wrote out/state_stripes.ppm (one band per state, each on "
               "its own colorbar)\n\n";

  const auto trends = state_trends_mapreduce(data, 4, 2);
  TextTable trend_table({"state", "mean °C", "trend °C/decade"});
  for (const StateTrend& t : trends)
    trend_table.row({state_names()[static_cast<std::size_t>(t.state)],
                     TextTable::num(t.mean_c, 2),
                     TextTable::num(t.slope_c_per_decade, 3)});
  trend_table.print(std::cout);

  std::cout << "\ntop-5 warmest years (chained MapReduce top-K):\n";
  TextTable top_table({"rank", "year", "mean °C"});
  int rank = 1;
  for (const YearMean& ym : warmest_years_mapreduce(data, 5))
    top_table.row({TextTable::num(static_cast<std::int64_t>(rank++)),
                   TextTable::num(static_cast<std::int64_t>(ym.year)),
                   TextTable::num(ym.mean_c, 2)});
  top_table.print(std::cout);

  return max_diff < 1e-9 ? 0 : 1;
}

#include "climate/pipeline.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "climate/stripes.hpp"

namespace peachy::climate {
namespace {

DwdModelParams small_params() {
  DwdModelParams p;
  p.first_year = 1950;
  p.last_year = 1980;
  return p;
}

void expect_series_equal(const AnnualSeries& a, const AnnualSeries& b) {
  ASSERT_EQ(a.first_year, b.first_year);
  ASSERT_EQ(a.mean_c.size(), b.mean_c.size());
  for (std::size_t i = 0; i < a.mean_c.size(); ++i) {
    EXPECT_EQ(a.has_any[i], b.has_any[i]) << "year index " << i;
    EXPECT_EQ(a.complete[i], b.complete[i]) << "year index " << i;
    if (a.has_any[i]) {
      EXPECT_NEAR(a.mean_c[i], b.mean_c[i], 1e-9) << "year index " << i;
    }
  }
}

TEST(Pipeline, TypedJobMatchesReference) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  expect_series_equal(annual_means_mapreduce(d), annual_means_reference(d));
}

// The result must be identical for every worker configuration.
class PipelineWorkerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PipelineWorkerSweep, WorkerCountInvariant) {
  const auto [mw, rw, combiner] = GetParam();
  const MonthlyDataset d = synthesize_dwd(small_params());
  PipelineConfig cfg;
  cfg.map_workers = mw;
  cfg.reduce_workers = rw;
  cfg.use_combiner = combiner;
  expect_series_equal(annual_means_mapreduce(d, cfg),
                      annual_means_reference(d));
}

INSTANTIATE_TEST_SUITE_P(Workers, PipelineWorkerSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Bool()));

TEST(Pipeline, TypedJobHandlesMissingData) {
  MonthlyDataset d = synthesize_dwd(small_params());
  drop_months(d, 1980, 10, 12);
  drop_months(d, 1950, 1, 1);
  d.clear(1960, 6, 5);
  expect_series_equal(annual_means_mapreduce(d), annual_means_reference(d));
}

TEST(Pipeline, CombinerCompressesShuffleTraffic) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  PipelineConfig with;
  with.use_combiner = true;
  annual_means_mapreduce(d, with);
  const auto with_counters = last_pipeline_counters();
  PipelineConfig without;
  without.use_combiner = false;
  annual_means_mapreduce(d, without);
  const auto without_counters = last_pipeline_counters();
  EXPECT_LT(with_counters.shuffle_records, without_counters.shuffle_records);
  EXPECT_EQ(with_counters.groups, without_counters.groups);
}

TEST(Pipeline, StreamingMatchesReferenceOnMonthMajor) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  const auto series = annual_means_streaming(month_major_all_lines(d), 1950,
                                             1980, {});
  expect_series_equal(series, annual_means_reference(d));
}

TEST(Pipeline, StreamingMatchesReferenceOnLongFormat) {
  // §III.A.4: the same mapper must digest a completely different layout.
  const MonthlyDataset d = synthesize_dwd(small_params());
  const auto series =
      annual_means_streaming(long_format_lines(d), 1950, 1980, {});
  expect_series_equal(series, annual_means_reference(d));
}

TEST(Pipeline, StreamingDigestsMixedLayouts) {
  // Half the years delivered month-major, the other half long-format, in
  // one input stream.
  DwdModelParams pa = small_params();
  pa.last_year = 1965;
  DwdModelParams pb = small_params();
  pb.first_year = 1966;
  const MonthlyDataset a = synthesize_dwd(pa);
  const MonthlyDataset b = synthesize_dwd(pb);

  std::vector<std::string> lines = month_major_all_lines(a);
  for (auto& l : long_format_lines(b)) lines.push_back(std::move(l));

  const auto series = annual_means_streaming(lines, 1950, 1980, {});
  const AnnualSeries ref_a = annual_means_reference(a);
  const AnnualSeries ref_b = annual_means_reference(b);
  for (int y = 1950; y <= 1965; ++y)
    EXPECT_NEAR(series.mean_c[static_cast<std::size_t>(y - 1950)],
                ref_a.mean_c[static_cast<std::size_t>(y - 1950)], 1e-6);
  for (int y = 1966; y <= 1980; ++y)
    EXPECT_NEAR(series.mean_c[static_cast<std::size_t>(y - 1950)],
                ref_b.mean_c[static_cast<std::size_t>(y - 1966)], 1e-6);
}

TEST(Pipeline, StreamingIgnoresJunkLines) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  std::vector<std::string> lines = month_major_all_lines(d);
  lines.insert(lines.begin(), "# a comment");
  lines.push_back("totally,unrelated");
  lines.push_back("");
  const auto series = annual_means_streaming(lines, 1950, 1980, {});
  expect_series_equal(series, annual_means_reference(d));
}

TEST(Pipeline, StreamingRejectsOutOfRangeYears) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  EXPECT_THROW(annual_means_streaming(month_major_all_lines(d), 1960, 1970, {}),
               peachy::Error);
}

TEST(Pipeline, EmptyInputGivesEmptySeries) {
  const auto series = annual_means_streaming({}, 2000, 2002, {});
  EXPECT_EQ(series.mean_c.size(), 3u);
  for (bool h : series.has_any) EXPECT_FALSE(h);
}

// --- Distributed pipeline (dmr) determinism ---------------------------------

// Bitwise equality, not EXPECT_NEAR: the distributed engine must add the
// same doubles in the same order as the in-process one.
void expect_series_bitwise(const AnnualSeries& a, const AnnualSeries& b) {
  ASSERT_EQ(a.first_year, b.first_year);
  ASSERT_EQ(a.mean_c.size(), b.mean_c.size());
  EXPECT_EQ(a.has_any, b.has_any);
  EXPECT_EQ(a.complete, b.complete);
  for (std::size_t i = 0; i < a.mean_c.size(); ++i)
    EXPECT_EQ(a.mean_c[i], b.mean_c[i]) << "year index " << i;
}

// A job shape shared by the reference and the distributed runs: identity
// requires matching map_tasks/partitions on both engines.
constexpr int kSweepTasks = 8;
constexpr int kSweepParts = 4;

AnnualSeries typed_reference(const MonthlyDataset& d) {
  PipelineConfig cfg;
  cfg.map_tasks = kSweepTasks;
  cfg.partitions = kSweepParts;
  return annual_means_mapreduce(d, cfg);
}

DmrPipelineConfig dmr_config(int ranks, int workers = 2,
                             mpp::TransportKind transport =
                                 mpp::TransportKind::kInproc) {
  DmrPipelineConfig cfg;
  cfg.options.ranks = ranks;
  cfg.options.run.transport = transport;
  cfg.options.map_workers = workers;
  cfg.options.reduce_workers = workers;
  cfg.options.map_tasks = kSweepTasks;
  cfg.options.partitions = kSweepParts;
  return cfg;
}

TEST(Pipeline, DmrMatchesTypedPipelineBitwise) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  const AnnualSeries expect = typed_reference(d);
  for (const int ranks : {1, 2, 4})
    expect_series_bitwise(annual_means_dmr(d, dmr_config(ranks)), expect);
}

TEST(Pipeline, DmrWorkerCountInvariant) {
  // Same stripes-feeding series across 1, 2, and 8 worker threads per rank.
  const MonthlyDataset d = synthesize_dwd(small_params());
  const AnnualSeries expect = typed_reference(d);
  for (const int workers : {1, 2, 8})
    expect_series_bitwise(annual_means_dmr(d, dmr_config(2, workers)),
                          expect);
}

TEST(Pipeline, DmrHandlesMissingDataIdentically) {
  MonthlyDataset d = synthesize_dwd(small_params());
  drop_months(d, 1980, 10, 12);
  drop_months(d, 1950, 1, 1);
  d.clear(1960, 6, 5);
  const AnnualSeries expect = typed_reference(d);
  for (const int workers : {1, 2, 8})
    expect_series_bitwise(annual_means_dmr(d, dmr_config(2, workers)),
                          expect);
  expect_series_equal(annual_means_dmr(d, dmr_config(4)),
                      annual_means_reference(d));
}

TEST(Pipeline, DmrTcpTransportMatchesInproc) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  const AnnualSeries expect = typed_reference(d);
  expect_series_bitwise(
      annual_means_dmr(d, dmr_config(2, 2, mpp::TransportKind::kTcp)),
      expect);
  const DmrPipelineStats& stats = last_dmr_stats();
  EXPECT_GT(stats.counters.shuffle_records, 0u);
  EXPECT_EQ(stats.restarts, 0);
}

TEST(Pipeline, DmrForcedSpillKeepsSeriesBitwise) {
  const MonthlyDataset d = synthesize_dwd(small_params());
  const AnnualSeries expect = typed_reference(d);
  DmrPipelineConfig cfg = dmr_config(2);
  cfg.options.spill_buffer_bytes = 128;  // force the external sort to disk
  expect_series_bitwise(annual_means_dmr(d, cfg), expect);
  EXPECT_GT(last_dmr_stats().counters.spill.spills, 0u);
}

TEST(Pipeline, StripesPpmIdenticalAcrossEnginesAndWorkers) {
  // The rendered Warming Stripes image — the artifact the assignment
  // grades — must be pixel-identical whichever engine and worker count
  // produced the series, including with missing data injected.
  MonthlyDataset d = synthesize_dwd(small_params());
  drop_months(d, 1972, 2, 4);
  const Image expect = render_stripes(typed_reference(d));
  for (const int workers : {1, 2, 8}) {
    PipelineConfig cfg;
    cfg.map_workers = workers;
    cfg.reduce_workers = workers;
    cfg.map_tasks = kSweepTasks;
    cfg.partitions = kSweepParts;
    const Image typed = render_stripes(annual_means_mapreduce(d, cfg));
    const Image dist = render_stripes(annual_means_dmr(d, dmr_config(2, workers)));
    ASSERT_EQ(typed.width(), expect.width());
    ASSERT_EQ(dist.width(), expect.width());
    for (int y = 0; y < expect.height(); ++y)
      for (int x = 0; x < expect.width(); ++x) {
        ASSERT_EQ(typed(y, x), expect(y, x))
            << "typed pixel (" << y << "," << x << ") workers=" << workers;
        ASSERT_EQ(dist(y, x), expect(y, x))
            << "dmr pixel (" << y << "," << x << ") workers=" << workers;
      }
  }
}

}  // namespace
}  // namespace peachy::climate

// Calibration from obs metric snapshots: a synthetic fixture generated from
// a known link must be recovered within tolerance, and every corrupt or
// underdetermined input must fail loudly instead of guessing.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "machine/calibrate.hpp"

namespace peachy::machine {
namespace {

obs::MetricSample histogram_sample(const char* name, std::uint64_t count,
                                   std::int64_t sum) {
  obs::MetricSample s;
  s.name = name;
  s.kind = obs::MetricSample::Kind::kHistogram;
  s.count = count;
  s.sum = sum;
  return s;
}

// One snapshot as the transport would leave it after a run at one frame
// size, generated from the one-way model delivery = latency + bytes/bandwidth.
std::vector<obs::MetricSample> synthetic_snapshot(double frame_bytes,
                                                  double bandwidth,
                                                  double latency_s,
                                                  std::uint64_t frames = 1000) {
  const double delivery_s = latency_s + frame_bytes / bandwidth;
  std::vector<obs::MetricSample> snap;
  snap.push_back(histogram_sample(
      "net.frame_bytes", frames,
      static_cast<std::int64_t>(frame_bytes * static_cast<double>(frames))));
  snap.push_back(histogram_sample(
      "net.delivery_ns", frames,
      static_cast<std::int64_t>(delivery_s * 1e9 *
                                static_cast<double>(frames))));
  return snap;
}

Machine base_machine() {
  Machine m;
  NodeGroup g;
  g.name = "cluster";
  g.nodes = 4;
  g.cores_per_socket = 2;
  g.core_gflops = 10.0;
  g.l3 = {200e9, 20e-9};
  g.membus = {25e9, 90e-9};
  g.nic = {1.0, 1.0};  // deliberately wrong: calibration must replace it
  m.groups = {g};
  m.fabric = {1.0, 1.0};
  return m;
}

TEST(MachineCalibrate, PointExtractsExactHistogramMeans) {
  const auto snap = synthetic_snapshot(4096.0, 1.25e9, 50e-6, 250);
  const CalibrationPoint p = calibration_point(snap);
  EXPECT_EQ(p.frames, 250u);
  EXPECT_NEAR(p.mean_frame_bytes, 4096.0, 1e-9);
  EXPECT_NEAR(p.mean_delivery_s, 50e-6 + 4096.0 / 1.25e9, 1e-9);
}

TEST(MachineCalibrate, FitRecoversSyntheticLinkWithinTolerance) {
  const double kBw = 1.25e9, kLat = 60e-6;
  std::vector<CalibrationPoint> points;
  for (double bytes : {1024.0, 16384.0, 262144.0, 4194304.0})
    points.push_back(calibration_point(synthetic_snapshot(bytes, kBw, kLat)));
  const LinkFit fit = fit_link(points);
  EXPECT_NEAR(fit.link.bytes_per_s, kBw, 0.02 * kBw);
  EXPECT_NEAR(fit.link.latency_s, kLat, 0.02 * kLat);
  EXPECT_EQ(fit.points, 4);
  EXPECT_LT(fit.max_residual_s, 1e-6);  // the fixture is exactly linear
}

TEST(MachineCalibrate, FromMeasurementsRepairsNicAndFabric) {
  const double kBw = 2e9, kLat = 80e-6;
  std::vector<std::vector<obs::MetricSample>> snapshots;
  for (double bytes : {2048.0, 65536.0, 1048576.0})
    snapshots.push_back(synthetic_snapshot(bytes, kBw, kLat));
  const Machine fitted = from_measurements(base_machine(), snapshots);
  const NodeGroup& g = fitted.groups[0];
  EXPECT_NEAR(g.nic.bytes_per_s, kBw, 0.02 * kBw);
  // The fitted one-way latency is split in half per NIC; the fabric carries
  // bandwidth only, so a nic->fabric->nic prediction reproduces the fit.
  EXPECT_NEAR(g.nic.latency_s, kLat / 2.0, 0.02 * kLat);
  EXPECT_NEAR(fitted.fabric.bytes_per_s, kBw, 0.02 * kBw);
  EXPECT_DOUBLE_EQ(fitted.fabric.latency_s, 0.0);
  // Compute-side edges are untouched.
  EXPECT_DOUBLE_EQ(g.membus.bytes_per_s, 25e9);
  fitted.validate();
}

TEST(MachineCalibrate, MissingMetricThrows) {
  std::vector<obs::MetricSample> snap;
  snap.push_back(histogram_sample("net.delivery_ns", 10, 1000));
  EXPECT_THROW(calibration_point(snap), Error);           // no frame_bytes
  EXPECT_THROW(calibration_point({}), Error);             // empty snapshot
}

TEST(MachineCalibrate, WrongKindEmptyOrCorruptHistogramsThrow) {
  {
    auto snap = synthetic_snapshot(4096.0, 1e9, 1e-5);
    snap[0].kind = obs::MetricSample::Kind::kCounter;
    EXPECT_THROW(calibration_point(snap), Error);
  }
  {
    auto snap = synthetic_snapshot(4096.0, 1e9, 1e-5);
    snap[1].count = 0;  // no observations
    EXPECT_THROW(calibration_point(snap), Error);
  }
  {
    auto snap = synthetic_snapshot(4096.0, 1e9, 1e-5);
    snap[1].sum = -5;  // corrupt sum
    EXPECT_THROW(calibration_point(snap), Error);
  }
}

TEST(MachineCalibrate, UnderdeterminedFitsThrow) {
  // One point: cannot separate latency from bandwidth.
  std::vector<CalibrationPoint> one = {
      calibration_point(synthetic_snapshot(4096.0, 1e9, 1e-5))};
  EXPECT_THROW(fit_link(one), Error);
  // Two points at the same frame size: bandwidth unresolvable.
  std::vector<CalibrationPoint> same = {
      calibration_point(synthetic_snapshot(4096.0, 1e9, 1e-5)),
      calibration_point(synthetic_snapshot(4096.0, 1e9, 1e-5))};
  EXPECT_THROW(fit_link(same), Error);
}

TEST(MachineCalibrate, NonIncreasingRttThrows) {
  // Delivery time shrinking with size fits a negative slope — rejected,
  // not inverted.
  CalibrationPoint a{1024.0, 2e-3, 10};
  CalibrationPoint b{65536.0, 1e-3, 10};
  EXPECT_THROW(fit_link({a, b}), Error);
}

}  // namespace
}  // namespace peachy::machine

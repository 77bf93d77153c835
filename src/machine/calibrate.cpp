#include "machine/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace peachy::machine {
namespace {

const obs::MetricSample& find_histogram(
    const std::vector<obs::MetricSample>& snapshot, const char* name) {
  for (const obs::MetricSample& s : snapshot) {
    if (s.name != name) continue;
    PEACHY_REQUIRE(s.kind == obs::MetricSample::Kind::kHistogram,
                   "calibration metric " << name << " is not a histogram");
    PEACHY_REQUIRE(s.count > 0,
                   "calibration metric " << name << " has no observations");
    PEACHY_REQUIRE(s.sum >= 0,
                   "calibration metric " << name << " has a corrupt sum");
    return s;
  }
  throw Error(std::string("calibration snapshot is missing metric ") + name);
}

}  // namespace

CalibrationPoint calibration_point(
    const std::vector<obs::MetricSample>& snapshot) {
  const obs::MetricSample& delivery =
      find_histogram(snapshot, "net.delivery_ns");
  const obs::MetricSample& bytes = find_histogram(snapshot, "net.frame_bytes");
  CalibrationPoint p;
  p.frames = bytes.count;
  p.mean_frame_bytes =
      static_cast<double>(bytes.sum) / static_cast<double>(bytes.count);
  p.mean_delivery_s = static_cast<double>(delivery.sum) /
                      static_cast<double>(delivery.count) * 1e-9;
  return p;
}

LinkFit fit_link(const std::vector<CalibrationPoint>& points) {
  PEACHY_REQUIRE(points.size() >= 2,
                 "link fit needs >= 2 calibration points, got "
                     << points.size());
  // Weighted least squares, weight = the point's frame count: each point is
  // a *mean* over that many per-frame samples, so its variance shrinks
  // with the count and the minimum-variance line weights it accordingly.
  // (A sweep's small-frame configs run many more exchanges per second than
  // the large ones; unweighted LS would let a noisy thin point at the top
  // of the range tilt the whole fit.) Synthetic/unit points with frames
  // left at zero still count with weight one.
  double sw = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const CalibrationPoint& p : points) {
    PEACHY_REQUIRE(p.mean_frame_bytes >= 0.0 && p.mean_delivery_s >= 0.0 &&
                       std::isfinite(p.mean_frame_bytes) &&
                       std::isfinite(p.mean_delivery_s),
                   "calibration point is corrupt");
    const double w = std::max<double>(1.0, static_cast<double>(p.frames));
    sw += w;
    sx += w * p.mean_frame_bytes;
    sy += w * p.mean_delivery_s;
    sxx += w * p.mean_frame_bytes * p.mean_frame_bytes;
    sxy += w * p.mean_frame_bytes * p.mean_delivery_s;
  }
  const double det = sw * sxx - sx * sx;
  PEACHY_REQUIRE(det > 1e-9,
                 "calibration points are all at one frame size — bandwidth "
                 "is unresolvable");
  const double slope = (sw * sxy - sx * sy) / det;       // s per byte
  const double intercept = (sy - slope * sx) / sw;       // latency
  PEACHY_REQUIRE(slope > 0.0,
                 "calibration fit yields non-positive bandwidth (delivery "
                 "time does not grow with frame size)");
  LinkFit fit;
  fit.link.bytes_per_s = 1.0 / slope;
  fit.link.latency_s = std::max(0.0, intercept);
  fit.points = static_cast<int>(points.size());
  for (const CalibrationPoint& p : points) {
    const double predicted = intercept + slope * p.mean_frame_bytes;
    fit.max_residual_s =
        std::max(fit.max_residual_s, std::abs(predicted - p.mean_delivery_s));
  }
  return fit;
}

Machine from_measurements(
    Machine base,
    const std::vector<std::vector<obs::MetricSample>>& snapshots) {
  std::vector<CalibrationPoint> points;
  points.reserve(snapshots.size());
  for (const auto& snapshot : snapshots)
    points.push_back(calibration_point(snapshot));
  const LinkFit fit = fit_link(points);
  // The transport path is nic -> fabric -> nic. Fitted latency lands on the
  // NIC edges (half each way); the fabric carries the fitted bandwidth with
  // zero latency so it never bottlenecks a single flow below the fit.
  for (NodeGroup& g : base.groups) {
    g.nic.bytes_per_s = fit.link.bytes_per_s;
    g.nic.latency_s = fit.link.latency_s / 2.0;
  }
  base.fabric.bytes_per_s = fit.link.bytes_per_s;
  base.fabric.latency_s = 0.0;
  base.validate();
  return base;
}

}  // namespace peachy::machine

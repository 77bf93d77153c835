// Calibration: fit machine-model edge parameters from measured obs metrics.
//
// The ground truth is the transport's own telemetry: the `net.delivery_ns`
// and `net.frame_bytes` histograms recorded by the TCP backend (obs keeps
// exact sums, so histogram means are exact). `net.delivery_ns` is one-way:
// the receiver's steady-clock reading minus the sender's stamp in the frame
// header, which is meaningful because every rank of a world runs on one
// host. Each metric snapshot taken after a run at one frame size yields one
// calibration point (mean bytes, mean delivery time); two or more points at
// distinct sizes resolve the classic linear cost model
//
//     delivery_s(bytes) = latency_s + bytes / bytes_per_s
//
// by least squares, each point weighted by its frame count (a point is a
// mean over that many samples, so its variance shrinks with the count): the
// slope is the inverse bottleneck bandwidth, the intercept the one-way
// latency. The fit is applied to the NIC edges of every group — the NIC is
// the only edge the transport exercises — and the fabric inherits the
// fitted bandwidth with zero latency, so a one-way prediction through
// nic -> fabric -> nic costs exactly intercept + bytes/bandwidth.
//
// Contract: snapshots missing either histogram, with zero observations, or
// with corrupt (negative) sums throw peachy::Error — calibration never
// guesses. Fits that do not resolve a positive bandwidth (delivery time not
// growing with size, or all points at one size) also throw.
#pragma once

#include <cstdint>
#include <vector>

#include "machine/machine.hpp"
#include "obs/obs.hpp"

namespace peachy::machine {

/// One measured operating point, derived from one metric snapshot.
struct CalibrationPoint {
  double mean_frame_bytes = 0.0;
  double mean_delivery_s = 0.0;
  std::uint64_t frames = 0;
};

/// Extracts the point from a snapshot (`obs::Registry::samples()` output).
/// Throws peachy::Error when the snapshot is unusable (see file comment).
CalibrationPoint calibration_point(const std::vector<obs::MetricSample>& snapshot);

/// A fitted link with the fit quality: largest absolute delivery-time
/// residual over the input points, in seconds.
struct LinkFit {
  LinkSpec link;
  double max_residual_s = 0.0;
  int points = 0;
};

/// Least-squares fit of the linear delivery model over >= 2 points at distinct
/// frame sizes. Throws peachy::Error when underdetermined or when the fit
/// yields a non-positive bandwidth.
LinkFit fit_link(const std::vector<CalibrationPoint>& points);

/// Returns `base` with NIC and fabric edges replaced by parameters fitted
/// from `snapshots` (one snapshot per measured frame size). The returned
/// machine revalidates; all errors are loud.
Machine from_measurements(
    Machine base, const std::vector<std::vector<obs::MetricSample>>& snapshots);

}  // namespace peachy::machine

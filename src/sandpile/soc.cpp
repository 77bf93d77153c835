#include "sandpile/soc.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace peachy::sandpile {

Avalanche drop_grain(Field& field, int y, int x) {
  PEACHY_REQUIRE(y >= 0 && y < field.height() && x >= 0 && x < field.width(),
                 "drop outside the pile: (" << y << "," << x << ")");
  const std::int64_t sink_before = field.sink_grains();
  auto& g = field.padded();
  ++field.at(y, x);

  Avalanche av;
  std::set<std::pair<int, int>> toppled_cells;

  // Parallel-update waves: all currently unstable cells topple together;
  // the wave count is the avalanche duration (BTW's time dimension).
  std::vector<std::pair<int, int>> wave;
  if (field.at(y, x) >= kTopple) wave.emplace_back(y, x);
  while (!wave.empty()) {
    ++av.duration;
    std::set<std::pair<int, int>> next;
    for (const auto& [cy, cx] : wave) {
      const int py = cy + 1, px = cx + 1;
      const Cell grains = g(py, px);
      if (grains < kTopple) continue;  // drained by an earlier wave member
      const Cell share = grains / kTopple;
      g(py, px) = grains % kTopple;
      g(py - 1, px) += share;
      g(py + 1, px) += share;
      g(py, px - 1) += share;
      g(py, px + 1) += share;
      ++av.size;
      toppled_cells.emplace(cy, cx);
      for (const auto& [ny, nx] : {std::pair{cy - 1, cx}, {cy + 1, cx},
                                  {cy, cx - 1}, {cy, cx + 1}}) {
        if (ny >= 0 && ny < field.height() && nx >= 0 && nx < field.width() &&
            field.at(ny, nx) >= kTopple)
          next.emplace(ny, nx);
      }
      if (g(py, px) >= kTopple) next.emplace(cy, cx);
    }
    wave.assign(next.begin(), next.end());
  }

  av.area = static_cast<std::int64_t>(toppled_cells.size());
  av.lost = field.sink_grains() - sink_before;
  return av;
}

std::int64_t drive_to_criticality(Field& field, std::int64_t grains,
                                  Rng& rng) {
  PEACHY_REQUIRE(grains >= 0, "negative grain count");
  std::int64_t topples = 0;
  for (std::int64_t i = 0; i < grains; ++i) {
    const int y = static_cast<int>(rng.uniform_int(0, field.height() - 1));
    const int x = static_cast<int>(rng.uniform_int(0, field.width() - 1));
    topples += drop_grain(field, y, x).size;
  }
  return topples;
}

std::vector<Avalanche> sample_avalanches(Field& field, std::int64_t drops,
                                         Rng& rng) {
  PEACHY_REQUIRE(drops >= 0, "negative drop count");
  std::vector<Avalanche> out;
  out.reserve(static_cast<std::size_t>(drops));
  for (std::int64_t i = 0; i < drops; ++i) {
    const int y = static_cast<int>(rng.uniform_int(0, field.height() - 1));
    const int x = static_cast<int>(rng.uniform_int(0, field.width() - 1));
    out.push_back(drop_grain(field, y, x));
  }
  return out;
}

std::vector<LogBin> log_binned(const std::vector<std::int64_t>& values,
                               std::int64_t* zeros) {
  std::int64_t zero_count = 0;
  std::int64_t max_value = 0;
  std::size_t positive = 0;
  for (std::int64_t v : values) {
    PEACHY_REQUIRE(v >= 0, "log binning needs non-negative values");
    if (v == 0) {
      ++zero_count;
    } else {
      ++positive;
      max_value = std::max(max_value, v);
    }
  }
  if (zeros != nullptr) *zeros = zero_count;

  std::vector<LogBin> bins;
  for (std::int64_t lo = 1; lo <= max_value; lo *= 2) {
    LogBin bin;
    bin.lo = lo;
    bin.hi = lo * 2;
    bins.push_back(bin);
  }
  for (std::int64_t v : values) {
    if (v <= 0) continue;
    const auto idx = static_cast<std::size_t>(
        std::floor(std::log2(static_cast<double>(v))));
    ++bins[std::min(idx, bins.size() - 1)].count;
  }
  for (LogBin& bin : bins) {
    const double width = static_cast<double>(bin.hi - bin.lo);
    bin.density = positive
                      ? static_cast<double>(bin.count) /
                            (static_cast<double>(positive) * width)
                      : 0.0;
  }
  return bins;
}

double power_law_exponent(const std::vector<LogBin>& bins,
                          std::int64_t min_count) {
  // Least-squares fit of log10(density) ~ -tau * log10(center).
  std::vector<std::pair<double, double>> points;
  for (const LogBin& bin : bins) {
    if (bin.count < min_count || bin.density <= 0) continue;
    const double center =
        std::sqrt(static_cast<double>(bin.lo) * static_cast<double>(bin.hi));
    points.emplace_back(std::log10(center), std::log10(bin.density));
  }
  PEACHY_REQUIRE(points.size() >= 2,
                 "need >= 2 usable bins for a power-law fit, got "
                     << points.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [px, py] : points) {
    sx += px;
    sy += py;
    sxx += px * px;
    sxy += px * py;
  }
  const double n = static_cast<double>(points.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return -slope;  // tau
}

}  // namespace peachy::sandpile

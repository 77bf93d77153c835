// Sample statistics and the benchmark's result line.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (`percent` in [1, 100]) of `samples`; 0 when
/// empty.
double percentile(std::vector<double> samples, int percent);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// Samples strictly above the nearest-rank `percent` percentile of n.
std::size_t samples_beyond(std::size_t n, int percent);

/// The tail the sample supports: the highest of p99, p90 and p75 with at
/// least 10 samples beyond it; below 40 samples the median, or the
/// maximum (100) below 20.
int tail_percent(std::size_t n);

/// The job-latency tail: `samples` (in submission order) are cut into
/// windows of `window` consecutive jobs, the last window absorbing any
/// remainder; each window's tail_percent() percentile is taken, and the
/// median over windows is reported. A host stall that hits part of a run
/// moves a few windows, not the reported tail.
struct Tail {
  int percent = 0;
  std::size_t window = 0;  ///< samples per window (the first window's)
  std::size_t windows = 0;
  double value = 0;
};
Tail windowed_tail(const std::vector<double>& samples, std::size_t window);

/// Metric names: a letter or digit, then up to 63 letters, digits, '_',
/// '.' and '-'.
bool valid_metric_name(const std::string& name);

/// The benchmark's last output line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. add() rejects invalid names,
/// duplicates and non-finite values by throwing.
class ResultLine {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  std::string json(bool correct, long long attempted, long long failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

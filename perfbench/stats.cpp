#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "core/error.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, int percent) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  const std::size_t rank = std::max<std::size_t>(
      1, (static_cast<std::size_t>(percent) * n + 99) / 100);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, int percent) {
  if (n == 0) return 0;
  const std::size_t rank = std::max<std::size_t>(
      1, (static_cast<std::size_t>(percent) * n + 99) / 100);
  return n - rank;
}

int tail_percent(std::size_t n) {
  for (const int p : {99, 90, 75, 50})
    if (samples_beyond(n, p) >= 10) return p;
  return 100;
}

Tail windowed_tail(const std::vector<double>& samples, std::size_t window) {
  Tail t;
  t.windows = std::max<std::size_t>(1, samples.size() / std::max<std::size_t>(window, 1));
  t.window = samples.size() / t.windows;
  t.percent = tail_percent(t.window);
  std::vector<double> tails;
  for (std::size_t w = 0; w < t.windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * t.window);
    const auto last = w + 1 == t.windows
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(t.window);
    tails.push_back(percentile(std::vector<double>(first, last), t.percent));
  }
  t.value = median(tails);
  return t;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0])))
    return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void ResultLine::add(const std::string& name, double value,
                     const std::string& unit) {
  PEACHY_REQUIRE(valid_metric_name(name), "invalid metric name '" << name << "'");
  PEACHY_REQUIRE(!has(name), "metric '" << name << "' reported twice");
  PEACHY_REQUIRE(std::isfinite(value),
                 "metric '" << name << "' is not finite: " << value);
  metrics_.push_back({name, value, unit});
}

bool ResultLine::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string ResultLine::json(bool correct, long long attempted,
                             long long failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench

// Self-tests of the benchmark's own logic: the tail-percentile rule, the
// metric-name check, and each result oracle accepting the right blob and
// rejecting corrupted ones. Exits 0 when every check holds.
#include <cstddef>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace svc = peachy::svc;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

void tail_rule() {
  expect(tail_percent(1000) == 99, "1000 samples support p99");
  expect(tail_percent(999) == 90, "999 samples leave 9 beyond p99");
  expect(tail_percent(100) == 90, "100 samples support p90");
  expect(tail_percent(99) == 75, "99 samples leave 9 beyond p90");
  expect(tail_percent(40) == 75, "40 samples support p75");
  expect(tail_percent(39) == 50, "39 samples fall back to the median");
  expect(tail_percent(5) == 100, "5 samples fall back to the maximum");
  for (const std::size_t n : {40u, 99u, 100u, 999u, 1000u, 4321u})
    expect(samples_beyond(n, tail_percent(n)) >= 10,
           "the chosen tail has 10 samples beyond it at n=" + std::to_string(n));
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 90) == 90 && percentile(v, 50) == 50 &&
             percentile(v, 100) == 100,
         "nearest-rank percentiles of 1..100");

  // Three windows of 1..100, one of them stalled: the median window wins.
  std::vector<double> stream;
  for (int w = 0; w < 3; ++w)
    for (int i = 1; i <= 100; ++i) stream.push_back(w == 1 ? 1000 + i : i);
  const Tail t = windowed_tail(stream, 100);
  expect(t.percent == 90 && t.window == 100 && t.windows == 3 && t.value == 90,
         "windowed tail is the median window's p90");
  stream.resize(42);
  const Tail short_run = windowed_tail(stream, 100);
  expect(short_run.windows == 1 && short_run.percent == 75 &&
             samples_beyond(short_run.window, short_run.percent) >= 10,
         "a run shorter than a window is one window at p75");
  stream.resize(250);
  expect(windowed_tail(stream, 100).windows == 2,
         "the last window absorbs the remainder");
}

void metric_names() {
  for (const char* ok : {"jobs_per_s", "svc.run_job_ms.dmr", "9-lives",
                         "a", "x.y-z_0"})
    expect(valid_metric_name(ok), std::string("accepts ") + ok);
  for (const char* bad : {"", "_lead", ".lead", "sp ace", "per/s", "ü",
                          "quote\""})
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  expect(valid_metric_name(std::string(64, 'a')), "accepts 64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "rejects 65 characters");
  ResultLine line;
  bool threw = false;
  try {
    line.add("bad name", 1, "ms");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "ResultLine refuses an invalid name");
  line.add("x", 1.5, "ms");
  expect(line.json(true, 3, 0) ==
             R"({"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1.5, "unit": "ms"}}})",
         "result line format");
}

void oracles() {
  const Workload& w = find_workload("svc-small-threads");
  const std::vector<std::uint64_t> seeds = dmr_seeds(7);
  const References refs =
      build_references(job_spec(w, svc::JobKind::kSandpile),
                       job_spec(w, svc::JobKind::kDmr), seeds,
                       job_spec(w, svc::JobKind::kWfsim));
  for (const svc::JobKind kind : kKinds) {
    svc::JobSpec spec = job_spec(w, kind);
    spec.dmr.seed = seeds.front();
    const std::string k = svc::to_string(kind);
    const std::vector<std::byte> good = reference_blob(refs, spec);
    expect(check_result(refs, spec, good).empty(), k + " oracle accepts the reference");
    const std::vector<std::function<void(std::vector<std::byte>&)>> corruptions = {
        [](std::vector<std::byte>& b) { b.back() ^= std::byte{1}; },
        [](std::vector<std::byte>& b) { b[b.size() / 2] ^= std::byte{0x10}; },
        [](std::vector<std::byte>& b) { b.resize(b.size() - 3); },
        [](std::vector<std::byte>& b) { b.push_back(std::byte{0}); },
        [](std::vector<std::byte>& b) { b.clear(); }};
    for (std::size_t i = 0; i < corruptions.size(); ++i) {
      std::vector<std::byte> bad = good;
      corruptions[i](bad);
      expect(!check_result(refs, spec, bad).empty(),
             k + " oracle rejects corruption " + std::to_string(i));
    }
    if (kind == svc::JobKind::kDmr) {
      svc::JobSpec other = spec;
      other.dmr.seed = seeds.back();
      expect(!check_result(refs, other, good).empty(),
             "dmr oracle rejects another corpus's counts");
    }
  }
}

}  // namespace

int main() {
  tail_rule();
  metric_names();
  oracles();
  std::cout << (failures == 0 ? "perfbench self-test: all checks passed\n"
                              : "perfbench self-test: FAILED\n");
  return failures == 0 ? 0 : 1;
}

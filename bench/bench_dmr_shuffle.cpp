// Distributed-shuffle cost model for the dmr engine.
//
// Section 1 scales the rank count on a fixed word-count job over inproc
// and tcp transports and reports wall time, cross-rank shuffle bytes, and
// partition skew — the numbers that explain when a distributed shuffle
// pays for itself.
//
// Section 2 sweeps the spill-buffer cap from "everything in memory" down
// to a tiny fraction of the intermediate size and measures what the
// external sort costs: spill-run count, bytes written to disk, and wall
// time, with output correctness asserted against the in-process engine at
// every point. Results land in out/BENCH_dmr.json.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "dmr/job.hpp"
#include "mapreduce/job.hpp"

namespace {

using peachy::mr::Emitter;
using InputPair = std::pair<int, std::string>;

std::vector<InputPair> corpus(int lines) {
  // Synthetic text with a Zipf-ish word mix: a few hot words plus a long
  // tail, so the partition-skew column has something to show.
  const char* hot[] = {"the", "of", "and", "stripe", "peach"};
  std::vector<InputPair> inputs;
  inputs.reserve(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < 12; ++w) {
      if (w) line += ' ';
      const int roll = (i * 131 + w * 37) % 100;
      if (roll < 55) {
        line += hot[roll % 5];
      } else {
        line += "word" + std::to_string((i * 17 + w * 7) % 500);
      }
    }
    inputs.emplace_back(i, line);
  }
  return inputs;
}

void word_mapper(const int&, const std::string& line,
                 Emitter<std::string, std::uint64_t>& out) {
  std::size_t start = 0;
  while (start < line.size()) {
    std::size_t end = line.find(' ', start);
    if (end == std::string::npos) end = line.size();
    if (end > start) out.emit(line.substr(start, end - start), 1);
    start = end + 1;
  }
}

void sum_reducer(const std::string& key,
                 const std::vector<std::uint64_t>& values,
                 Emitter<std::string, std::uint64_t>& out) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) total += v;
  out.emit(key, total);
}

constexpr int kMapTasks = 16;
constexpr int kPartitions = 8;

peachy::dmr::Result<std::string, std::uint64_t> run_job(
    const std::vector<InputPair>& inputs, peachy::dmr::Options opt) {
  opt.map_tasks = kMapTasks;
  opt.partitions = kPartitions;
  opt.map_workers = 2;
  opt.reduce_workers = 2;
  peachy::dmr::Job<int, std::string, std::string, std::uint64_t, std::string,
                   std::uint64_t>
      job;
  job.mapper(word_mapper).reducer(sum_reducer).options(std::move(opt));
  // No combiner: keep the full map output flowing through the shuffle so
  // the bench measures shuffle and spill machinery, not pre-aggregation.
  return job.run(inputs);
}

double skew_ratio(const std::vector<std::size_t>& per_partition) {
  if (per_partition.empty()) return 0.0;
  std::size_t total = 0;
  std::size_t biggest = 0;
  for (const std::size_t n : per_partition) {
    total += n;
    biggest = std::max(biggest, n);
  }
  const double even =
      static_cast<double>(total) / static_cast<double>(per_partition.size());
  return even > 0.0 ? static_cast<double>(biggest) / even : 0.0;
}

}  // namespace

int main() {
  using namespace peachy;

  const auto inputs = corpus(4000);

  // The in-process reference both sections assert against.
  mr::Job<int, std::string, std::string, std::uint64_t, std::string,
          std::uint64_t>
      ref;
  mr::JobConfig ref_cfg;
  ref_cfg.map_workers = 2;
  ref_cfg.reduce_workers = 2;
  ref_cfg.map_tasks = kMapTasks;
  ref_cfg.partitions = kPartitions;
  ref.mapper(word_mapper).reducer(sum_reducer).config(ref_cfg);
  const auto expect = ref.run(inputs);

  // --- Section 1: rank scaling per transport ---------------------------
  std::cout << "dmr shuffle scaling — word count over " << inputs.size()
            << " lines, " << kMapTasks << " map tasks, " << kPartitions
            << " partitions, no combiner\n\n";
  TextTable scale_table({"transport", "ranks", "wall ms", "shuffle MB",
                         "local MB", "skew (max/mean)", "correct"});
  json::Array scale_rows;
  for (const auto transport :
       {mpp::TransportKind::kInproc, mpp::TransportKind::kTcp}) {
    for (const int ranks : {1, 2, 4}) {
      dmr::Options opt;
      opt.ranks = ranks;
      opt.run.transport = transport;
      WallTimer timer;
      const auto r = run_job(inputs, opt);
      const double ms = timer.elapsed_ms();
      const bool correct = r.output == expect;
      const double shuffle_mb =
          static_cast<double>(r.counters.shuffle_bytes) / (1024.0 * 1024.0);
      const double local_mb =
          static_cast<double>(r.counters.local_bytes) / (1024.0 * 1024.0);
      const double skew = skew_ratio(r.counters.partition_records);
      scale_table.row({mpp::to_string(transport),
                       TextTable::num(static_cast<std::int64_t>(ranks)),
                       TextTable::num(ms, 1), TextTable::num(shuffle_mb, 2),
                       TextTable::num(local_mb, 2), TextTable::num(skew, 2),
                       correct ? "yes" : "NO"});
      json::Object row;
      row["transport"] = json::Value(mpp::to_string(transport));
      row["ranks"] = json::Value(static_cast<std::int64_t>(ranks));
      row["wall_ms"] = json::Value(ms);
      row["shuffle_bytes"] =
          json::Value(static_cast<std::int64_t>(r.counters.shuffle_bytes));
      row["local_bytes"] =
          json::Value(static_cast<std::int64_t>(r.counters.local_bytes));
      row["shuffle_records"] =
          json::Value(static_cast<std::int64_t>(r.counters.shuffle_records));
      row["partition_skew"] = json::Value(skew);
      row["correct"] = json::Value(correct);
      scale_rows.push_back(json::Value(std::move(row)));
    }
  }
  scale_table.print(std::cout);

  // --- Section 2: spill-threshold sweep --------------------------------
  // Total intermediate footprint ~= shuffle + local bytes from a probe run.
  dmr::Options probe;
  probe.ranks = 2;
  const auto probed = run_job(inputs, probe);
  const std::size_t intermediate =
      probed.counters.shuffle_bytes + probed.counters.local_bytes;

  std::cout << "\nspill-threshold sweep — 2 inproc ranks, intermediate "
               "footprint ~"
            << intermediate / 1024 << " KiB per job\n\n";
  TextTable spill_table({"buffer cap", "spill runs", "spilled MB", "wall ms",
                         "correct"});
  json::Array spill_rows;
  for (const double fraction : {0.0, 1.0, 0.5, 0.25, 0.1, 0.02}) {
    dmr::Options opt;
    opt.ranks = 2;
    opt.spill_buffer_bytes =
        static_cast<std::size_t>(static_cast<double>(intermediate) * fraction);
    WallTimer timer;
    const auto r = run_job(inputs, opt);
    const double ms = timer.elapsed_ms();
    const bool correct = r.output == expect;
    const double spilled_mb =
        static_cast<double>(r.counters.spill.spilled_bytes) /
        (1024.0 * 1024.0);
    spill_table.row(
        {fraction == 0.0
             ? std::string("unbounded")
             : TextTable::num(fraction * 100.0, 0) + "% of intermediate",
         TextTable::num(static_cast<std::int64_t>(r.counters.spill.spills)),
         TextTable::num(spilled_mb, 2), TextTable::num(ms, 1),
         correct ? "yes" : "NO"});
    json::Object row;
    row["buffer_fraction"] = json::Value(fraction);
    row["buffer_bytes"] =
        json::Value(static_cast<std::int64_t>(opt.spill_buffer_bytes));
    row["spill_runs"] =
        json::Value(static_cast<std::int64_t>(r.counters.spill.spills));
    row["spilled_bytes"] =
        json::Value(static_cast<std::int64_t>(r.counters.spill.spilled_bytes));
    row["wall_ms"] = json::Value(ms);
    row["correct"] = json::Value(correct);
    spill_rows.push_back(json::Value(std::move(row)));
  }
  spill_table.print(std::cout);
  std::cout << "\nexpected shape: spill cost rises as the buffer shrinks "
               "(more, smaller sorted runs to merge), while output stays "
               "byte-identical to the in-process engine throughout.\n";

  json::Object doc;
  doc["rank_scaling"] = json::Value(std::move(scale_rows));
  doc["spill_sweep"] = json::Value(std::move(spill_rows));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_dmr.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_dmr.json\n";
  return 0;
}

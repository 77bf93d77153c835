// Kill-and-recover for the distributed MapReduce engine: a spawned dmr job
// whose wire is severed mid-shuffle must detect the dead rank, respawn the
// world, restore the last committed map-epoch checkpoint, and still produce
// output byte-identical to the fault-free single-process reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dmr/job.hpp"
#include "mapreduce/job.hpp"
#include "mpp/mpp.hpp"

namespace peachy::dmr {
namespace {

using InputPair = std::pair<int, std::string>;

std::vector<InputPair> corpus(int lines) {
  const char* words[] = {"warming", "stripe", "rank", "epoch", "spill",
                         "merge",   "peach",  "sort", "wire",  "fault"};
  std::vector<InputPair> inputs;
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < 9; ++w) {
      if (w) line += ' ';
      line += words[(i * 7 + w * 5) % 10];
    }
    inputs.emplace_back(i, line);
  }
  return inputs;
}

void word_mapper(const int&, const std::string& line,
                 mr::Emitter<std::string, std::uint64_t>& out) {
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
                 mr::Emitter<std::string, std::uint64_t>& out) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) total += v;
  out.emit(key, total);
}

// scripts/fault_sweep.sh --suite dmr varies the sever point through this
// env var so one test body covers many failure instants. The busiest link
// of this job shape carries 12 frames (the restore's gather of held
// epochs, the epoch exchanges and the result transfer; a checkpoint cut
// sends nothing, each rank commits its own file), so seeds map onto
// severs 1..11 — every instant at which the wire can die. If the job
// shape ever shrinks the frame budget, the "sever never fired" assert
// below catches the drift.
int sweep_sever_after() {
  const char* env = std::getenv("PEACHY_FAULT_SEED");
  const int seed = env ? std::atoi(env) : 7;
  return 1 + (seed - 1) % 11;
}

TEST(DmrRecovery, SpawnedFaultFreeRunMatchesReference) {
  const auto inputs = corpus(60);

  mr::Job<int, std::string, std::string, std::uint64_t, std::string,
          std::uint64_t>
      ref;
  mr::JobConfig cfg;
  cfg.map_tasks = 8;
  cfg.partitions = 4;
  ref.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  ref.config(cfg);
  const auto expect = ref.run(inputs);

  Job<int, std::string, std::string, std::uint64_t, std::string,
      std::uint64_t>
      job;
  Options opt;
  opt.ranks = 2;
  opt.map_tasks = 8;
  opt.partitions = 4;
  opt.run.spawn = true;
  opt.run.transport = mpp::TransportKind::kTcp;
  job.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  job.options(opt);
  const auto r = job.run(inputs);
  EXPECT_EQ(r.output, expect);
  EXPECT_EQ(r.restarts, 0);
}

TEST(DmrRecovery, SpawnedSeveredRankRecoversByteIdentical) {
  const auto inputs = corpus(120);

  mr::Job<int, std::string, std::string, std::uint64_t, std::string,
          std::uint64_t>
      ref;
  mr::JobConfig cfg;
  cfg.map_tasks = 8;
  cfg.partitions = 4;
  ref.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  ref.config(cfg);
  const auto expect = ref.run(inputs);

  Job<int, std::string, std::string, std::uint64_t, std::string,
      std::uint64_t>
      job;
  Options opt;
  opt.ranks = 2;
  opt.map_tasks = 8;
  opt.partitions = 4;
  opt.map_epochs = 4;        // several shuffle epochs to sever between
  opt.checkpoint_every = 1;  // commit after every epoch
  opt.run.spawn = true;
  opt.run.transport = mpp::TransportKind::kTcp;
  opt.run.resilience.max_restarts = 3;
  opt.run.tcp.fault.sever_after = sweep_sever_after();
  job.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  job.options(opt);

  const auto r = job.run(inputs);
  EXPECT_GE(r.restarts, 1) << "the sever never fired; the test is vacuous";
  EXPECT_EQ(r.output, expect)
      << "recovered output differs from the fault-free reference";
}

TEST(DmrRecovery, CheckpointingDoesNotPerturbTheResult) {
  const auto inputs = corpus(80);

  Job<int, std::string, std::string, std::uint64_t, std::string,
      std::uint64_t>
      plain;
  Options base;
  base.ranks = 2;
  base.map_tasks = 8;
  base.partitions = 4;
  base.map_epochs = 4;
  plain.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  plain.options(base);
  const auto expect = plain.run(inputs);

  Job<int, std::string, std::string, std::uint64_t, std::string,
      std::uint64_t>
      ckpt;
  Options opt = base;
  opt.checkpoint_every = 1;
  opt.run.resilience.max_restarts = 1;  // enables the checkpoint dir
  ckpt.mapper(word_mapper).combiner(sum_reducer).reducer(sum_reducer);
  ckpt.options(opt);
  const auto r = ckpt.run(inputs);
  EXPECT_EQ(r.restarts, 0);
  EXPECT_EQ(r.output, expect.output);
}

}  // namespace
}  // namespace peachy::dmr

// Fault-tolerance cost model: what does resilience cost when nothing
// fails, and how long does recovery take when something does?
//
// Section 1 sweeps the checkpoint interval on the 1-D distributed sandpile
// (in-process ranks) and reports the wall-time overhead of cutting
// consistent checkpoints vs the checkpoint-free baseline.
//
// Section 2 runs the same problem over spawned worker processes with a
// deterministic link-sever fault plan and supervision enabled, and compares
// against the fault-free spawned run: the difference is the time to detect
// the dead rank, respawn the world, and restore from the last committed
// checkpoint. Results land in out/BENCH_recovery.json.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/json.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

int main() {
  using namespace peachy;
  using namespace peachy::sandpile;

  // --- Section 1: checkpoint overhead on a clean run -------------------
  constexpr int kSize = 256;
  const Field initial = center_pile(kSize, kSize, 60000);
  Field reference = initial;
  stabilize_reference(reference);

  std::cout << "checkpoint overhead — " << kSize << "x" << kSize
            << " pile, 60 000 grains centered, 4 in-process ranks, k = 1\n\n";

  TextTable overhead_table({"checkpoint every", "rounds", "checkpoints",
                            "wall ms", "overhead %", "correct"});
  json::Array overhead_rows;
  double baseline_ms = 0.0;
  for (int every : {0, 8, 4, 2, 1}) {
    DistributedOptions opt;
    opt.ranks = 4;
    opt.checkpoint_every = every;
    // max_restarts > 0 gives the run a private checkpoint directory even
    // though nothing will fail; the cost measured is pure checkpointing.
    opt.run.resilience.max_restarts = 1;
    WallTimer timer;
    const DistributedResult r = stabilize_distributed(initial, opt);
    const double ms = timer.elapsed_ms();
    if (every == 0) baseline_ms = ms;
    const double overhead_pct =
        baseline_ms > 0.0 ? (ms / baseline_ms - 1.0) * 100.0 : 0.0;
    const std::int64_t checkpoints = every > 0 ? r.rounds / every : 0;
    const bool correct = r.field.same_interior(reference);
    overhead_table.row(
        {every > 0 ? TextTable::num(static_cast<std::int64_t>(every))
                   : std::string("never"),
         TextTable::num(static_cast<std::int64_t>(r.rounds)),
         TextTable::num(checkpoints), TextTable::num(ms, 1),
         TextTable::num(overhead_pct, 1), correct ? "yes" : "NO"});
    json::Object row;
    row["checkpoint_every"] = json::Value(static_cast<std::int64_t>(every));
    row["rounds"] = json::Value(static_cast<std::int64_t>(r.rounds));
    row["checkpoints"] = json::Value(checkpoints);
    row["wall_ms"] = json::Value(ms);
    row["overhead_pct"] = json::Value(overhead_pct);
    row["correct"] = json::Value(correct);
    overhead_rows.push_back(json::Value(std::move(row)));
  }
  overhead_table.print(std::cout);
  std::cout << "\nexpected shape: overhead grows roughly linearly in "
               "checkpoint frequency — each cut gathers every slab at rank 0 "
               "and commits one file via atomic rename.\n";

  // --- Section 2: time-to-recover under a severed link -----------------
  constexpr int kFaultSize = 96;
  const Field fault_initial = center_pile(kFaultSize, kFaultSize, 12000);
  Field fault_reference = fault_initial;
  stabilize_reference(fault_reference);

  std::cout << "\ntime to recover — " << kFaultSize << "x" << kFaultSize
            << " pile, 12 000 grains, 2 spawned worker processes, "
               "checkpoint every 4 rounds\n\n";

  auto spawned_run = [&](int sever_after) {
    DistributedOptions opt;
    opt.ranks = 2;
    opt.checkpoint_every = 4;
    opt.run.spawn = true;
    opt.run.transport = mpp::TransportKind::kTcp;
    opt.run.resilience.max_restarts = 2;
    opt.run.tcp.fault.sever_after = sever_after;
    return opt;
  };

  TextTable recover_table({"scenario", "rounds", "restarts", "wall ms",
                           "correct"});
  json::Object recovery;
  double clean_ms = 0.0;
  for (const int sever_after : {-1, 120}) {
    const DistributedOptions opt = spawned_run(sever_after);
    WallTimer timer;
    const DistributedResult r = stabilize_distributed(fault_initial, opt);
    const double ms = timer.elapsed_ms();
    const bool correct = r.field.same_interior(fault_reference);
    const bool faulty = sever_after >= 0;
    if (!faulty) clean_ms = ms;
    recover_table.row(
        {faulty ? "link severed mid-run" : "fault-free",
         TextTable::num(static_cast<std::int64_t>(r.rounds)),
         TextTable::num(static_cast<std::int64_t>(r.restarts)),
         TextTable::num(ms, 1), correct ? "yes" : "NO"});
    json::Object row;
    row["rounds"] = json::Value(static_cast<std::int64_t>(r.rounds));
    row["restarts"] = json::Value(static_cast<std::int64_t>(r.restarts));
    row["wall_ms"] = json::Value(ms);
    row["correct"] = json::Value(correct);
    if (faulty) {
      row["time_to_recover_ms"] = json::Value(ms - clean_ms);
      recovery["severed"] = json::Value(std::move(row));
    } else {
      recovery["clean"] = json::Value(std::move(row));
    }
  }
  recover_table.print(std::cout);
  std::cout << "\nexpected shape: the severed run pays detection (peer "
               "death surfaces through the ack/heartbeat machinery), a "
               "world respawn, and re-execution back from the last committed "
               "checkpoint — yet ends byte-identical to the clean run.\n";

  json::Object doc;
  doc["checkpoint_overhead"] = json::Value(std::move(overhead_rows));
  doc["recovery"] = json::Value(std::move(recovery));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_recovery.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_recovery.json\n";
  return 0;
}

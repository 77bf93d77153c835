// Ghost Cell Pattern demo (paper §II.B, fourth assignment).
//
// Distributes a sandpile across message-passing ranks with a 1-D row
// decomposition and sweeps the halo depth k: deeper halos exchange every k
// iterations (fewer, larger messages, redundant border compute), shallower
// halos exchange every iteration. Prints the communication/computation
// trade-off and verifies every configuration against the sequential
// reference.
//
// By default the ranks are threads exchanging through in-process mailboxes;
// with --transport tcp every halo crosses a real loopback socket, and with
// --spawn the ranks become separate worker processes.
// --net-fault-sever-after N with --checkpoint-every and --max-restarts
// severs every link mid-run to show the world restarting from a
// checkpoint.
#include <iostream>

#include "core/args.hpp"
#include "core/table.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

namespace {

void usage() {
  std::cout <<
      "ghost_cells_demo [options]\n"
      "  --size N             grid side length (default 256)\n"
      "  --grains N           grains on the center cell (default 60000)\n"
      "  --ranks N            message-passing ranks (default 4)\n"
      "  --transport NAME     inproc | tcp (default inproc)\n"
      "  --spawn              ranks are real processes (implies tcp)\n"
      "  --net-fault-sever-after N hard-kill each link after its Nth frame\n"
      "  --checkpoint-every N  checkpoint local slabs every N rounds\n"
      "  --max-restarts M      respawn+restore a failed world up to M times\n"
      "  --checkpoint-dir PATH keep checkpoints here (enables resume across\n"
      "                        invocations; default: private temp dir)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace peachy;
  using namespace peachy::sandpile;

  const Args args(argc, argv, {"spawn", "help"});
  if (args.has("help")) {
    usage();
    return 0;
  }
  const auto unknown = args.unknown_options(
      {"size", "grains", "ranks", "transport", "spawn",
       "net-fault-sever-after",
       "checkpoint-every", "max-restarts", "checkpoint-dir", "help"});
  if (!unknown.empty()) {
    std::cerr << "unknown option --" << unknown.front() << "\n";
    usage();
    return 2;
  }

  const int size = args.get_int("size", 256);
  const int grains = args.get_int("grains", 60000);
  const int ranks = args.get_int("ranks", 4);

  mpp::RunOptions run;
  run.transport = mpp::transport_from_string(args.get("transport", "inproc"));
  run.spawn = args.has("spawn");
  if (run.spawn) run.transport = mpp::TransportKind::kTcp;
  run.tcp.fault.sever_after = args.get_int("net-fault-sever-after", -1);
  run.resilience.max_restarts = args.get_int("max-restarts", 0);
  run.resilience.checkpoint_dir = args.get("checkpoint-dir", "");
  const int checkpoint_every = args.get_int("checkpoint-every", 0);

  const Field initial = center_pile(size, size, static_cast<Cell>(grains));
  Field reference = initial;
  stabilize_reference(reference);
  std::cout << "distributed sandpile: " << size << "x" << size << ", "
            << grains << " grains centered, " << ranks << " ranks over "
            << (run.spawn ? "spawned processes + tcp"
                          : mpp::to_string(run.transport))
            << "\n\n";

  TextTable table({"halo depth k", "exchange rounds", "iterations",
                   "messages", "MB sent", "restarts",
                   "matches reference"});
  for (int k : {1, 2, 4, 8, 16}) {
    DistributedOptions opt;
    opt.ranks = ranks;
    opt.halo_depth = k;
    opt.checkpoint_every = checkpoint_every;
    opt.run = run;
    // Each sweep run gets its own checkpoint subdirectory — slab geometry
    // depends on k, so runs must not restore each other's checkpoints.
    if (!run.resilience.checkpoint_dir.empty())
      opt.run.resilience.checkpoint_dir =
          run.resilience.checkpoint_dir + "/k" + std::to_string(k);
    const DistributedResult r = stabilize_distributed(initial, opt);
    table.row({TextTable::num(static_cast<std::int64_t>(k)),
               TextTable::num(static_cast<std::int64_t>(r.rounds)),
               TextTable::num(static_cast<std::int64_t>(r.iterations)),
               TextTable::num(static_cast<std::int64_t>(r.comm.messages_sent)),
               TextTable::num(static_cast<double>(r.comm.bytes_sent) / 1e6, 2),
               TextTable::num(static_cast<std::int64_t>(r.restarts)),
               r.field.same_interior(reference) ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nDeeper halos trade redundant border computation for "
               "fewer (larger) messages — the paper's §II.B trade-off.\n";
  return 0;
}

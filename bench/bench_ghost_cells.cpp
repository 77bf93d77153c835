// §II.B (4th assignment) reproduction: the Ghost Cell Pattern trade-off —
// "the communication overheads are such that students have to develop a
// solution that trades redundant computation for less-frequent
// communication".
//
// Sweeps halo depth k and rank count for the distributed synchronous
// sandpile over the in-process message-passing runtime, reporting exchange
// rounds, message counts, bytes moved, wall time and a correctness check
// against the sequential reference.
// The final section re-runs a smaller sweep over both mpp transports —
// in-process mailboxes vs real loopback TCP — and records the comparison
// in out/BENCH_net.json.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/json.hpp"
#include "core/table.hpp"
#include "core/timer.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"

int main() {
  using namespace peachy;
  using namespace peachy::sandpile;

  constexpr int kSize = 512;
  const Field initial = center_pile(kSize, kSize, 150000);
  Field reference = initial;
  stabilize_reference(reference);

  std::cout << "ghost-cell trade-off — " << kSize << "x" << kSize
            << " pile, 150 000 grains centered, synchronous updates over "
               "mpp (in-process message passing)\n\n";

  TextTable table({"ranks", "halo k", "rounds", "iterations", "messages",
                   "MB sent", "msgs/iteration", "wall ms", "correct"});
  for (int ranks : {2, 4, 8}) {
    for (int k : {1, 2, 4, 8}) {
      DistributedOptions opt;
      opt.ranks = ranks;
      opt.halo_depth = k;
      WallTimer timer;
      const DistributedResult r = stabilize_distributed(initial, opt);
      const double ms = timer.elapsed_ms();
      table.row(
          {TextTable::num(static_cast<std::int64_t>(ranks)),
           TextTable::num(static_cast<std::int64_t>(k)),
           TextTable::num(static_cast<std::int64_t>(r.rounds)),
           TextTable::num(static_cast<std::int64_t>(r.iterations)),
           TextTable::num(static_cast<std::int64_t>(r.comm.messages_sent)),
           TextTable::num(static_cast<double>(r.comm.bytes_sent) / 1e6, 1),
           TextTable::num(static_cast<double>(r.comm.messages_sent) /
                              r.iterations,
                          2),
           TextTable::num(ms, 1),
           r.field.same_interior(reference) ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: messages per iteration fall as 1/k "
               "(less-frequent communication) while bytes per exchange grow "
               "with k (deeper halos + redundant computation) — the "
               "trade-off of the Ghost Cell Pattern.\n";

  // --- 1-D rows vs 2-D blocks: the surface-to-volume argument.
  std::cout << "\n1-D row decomposition vs 2-D block decomposition (16 "
               "ranks, k = 1):\n";
  TextTable decomp({"decomposition", "rounds", "messages", "MB sent",
                    "bytes/rank/round", "correct"});
  {
    DistributedOptions o1;
    o1.ranks = 16;
    const DistributedResult r1 = stabilize_distributed(initial, o1);
    decomp.row({"1-D (16x1 rows)",
                TextTable::num(static_cast<std::int64_t>(r1.rounds)),
                TextTable::num(static_cast<std::int64_t>(
                    r1.comm.messages_sent)),
                TextTable::num(static_cast<double>(r1.comm.bytes_sent) / 1e6, 1),
                TextTable::num(static_cast<double>(r1.comm.bytes_sent) /
                                   (16.0 * r1.rounds),
                               0),
                r1.field.same_interior(reference) ? "yes" : "NO"});

    DistributedOptions o2;
    o2.ranks = 16;
    o2.ranks_x = 4;
    const DistributedResult r2 = stabilize_distributed(initial, o2);
    decomp.row({"2-D (4x4 blocks)",
                TextTable::num(static_cast<std::int64_t>(r2.rounds)),
                TextTable::num(static_cast<std::int64_t>(
                    r2.comm.messages_sent)),
                TextTable::num(static_cast<double>(r2.comm.bytes_sent) / 1e6, 1),
                TextTable::num(static_cast<double>(r2.comm.bytes_sent) /
                                   (16.0 * r2.rounds),
                               0),
                r2.field.same_interior(reference) ? "yes" : "NO"});
  }
  decomp.print(std::cout);
  std::cout << "\nexpected shape: 2-D blocks move fewer bytes per rank per "
               "round (perimeter scales as 1/sqrt(P) vs 1-D's constant "
               "full-width rows), at the cost of twice the messages.\n";

  // --- Transport comparison: the same halo exchanges over in-process
  // mailboxes vs real loopback sockets (framing + CRC + syscalls).
  constexpr int kNetSize = 128;
  const Field net_initial = center_pile(kNetSize, kNetSize, 20000);
  Field net_reference = net_initial;
  stabilize_reference(net_reference);

  std::cout << "\ninproc vs tcp transport — " << kNetSize << "x" << kNetSize
            << " pile, 20 000 grains centered:\n";
  TextTable net_table({"ranks", "halo k", "transport", "rounds", "messages",
                       "MB sent", "wall ms", "us/exchange",
                       "correct"});
  json::Array net_rows;
  for (int ranks : {2, 4}) {
    for (int k : {1, 2, 4, 8}) {
      double inproc_ms = 0.0;
      for (const auto transport :
           {mpp::TransportKind::kInproc, mpp::TransportKind::kTcp}) {
        DistributedOptions opt;
        opt.ranks = ranks;
        opt.halo_depth = k;
        opt.run.transport = transport;
        WallTimer timer;
        const DistributedResult r = stabilize_distributed(net_initial, opt);
        const double ms = timer.elapsed_ms();
        if (transport == mpp::TransportKind::kInproc) inproc_ms = ms;
        const bool correct = r.field.same_interior(net_reference);
        net_table.row(
            {TextTable::num(static_cast<std::int64_t>(ranks)),
             TextTable::num(static_cast<std::int64_t>(k)),
             mpp::to_string(transport),
             TextTable::num(static_cast<std::int64_t>(r.rounds)),
             TextTable::num(static_cast<std::int64_t>(r.comm.messages_sent)),
             TextTable::num(static_cast<double>(r.comm.bytes_sent) / 1e6, 2),
             TextTable::num(ms, 1),
             TextTable::num(ms * 1e3 / r.rounds, 1),
             correct ? "yes" : "NO"});
        json::Object row;
        row["ranks"] = json::Value(static_cast<std::int64_t>(ranks));
        row["halo_depth"] = json::Value(static_cast<std::int64_t>(k));
        row["transport"] = json::Value(mpp::to_string(transport));
        row["rounds"] = json::Value(static_cast<std::int64_t>(r.rounds));
        row["iterations"] =
            json::Value(static_cast<std::int64_t>(r.iterations));
        row["messages"] =
            json::Value(static_cast<std::int64_t>(r.comm.messages_sent));
        row["bytes"] =
            json::Value(static_cast<std::int64_t>(r.comm.bytes_sent));
        row["wall_ms"] = json::Value(ms);
        row["us_per_exchange"] = json::Value(ms * 1e3 / r.rounds);
        if (transport == mpp::TransportKind::kTcp)
          row["tcp_vs_inproc"] = json::Value(ms / inproc_ms);
        row["correct"] = json::Value(correct);
        net_rows.push_back(json::Value(std::move(row)));
      }
    }
  }
  net_table.print(std::cout);
  std::cout << "\nexpected shape: tcp pays a per-exchange latency floor "
               "(syscalls, framing, reader wake-ups), so deeper halos close more of the "
               "gap to inproc — exactly the exchange-frequency trade-off the "
               "pattern teaches.\n";

  json::Object doc;
  doc["grid"] = json::Value(static_cast<std::int64_t>(kNetSize));
  doc["grains"] = json::Value(static_cast<std::int64_t>(20000));
  doc["sweep"] = json::Value(std::move(net_rows));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_net.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_net.json\n";
  return 0;
}

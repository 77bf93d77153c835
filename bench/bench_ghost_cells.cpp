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
#include <span>
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
  // mailboxes vs real loopback sockets (framing + CRC + ack/retransmit).
  constexpr int kNetSize = 128;
  const Field net_initial = center_pile(kNetSize, kNetSize, 20000);
  Field net_reference = net_initial;
  stabilize_reference(net_reference);

  std::cout << "\ninproc vs tcp transport — " << kNetSize << "x" << kNetSize
            << " pile, 20 000 grains centered:\n";
  TextTable net_table({"ranks", "halo k", "transport", "rounds", "messages",
                       "MB sent", "retransmits", "wall ms", "us/exchange",
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
             TextTable::num(static_cast<std::int64_t>(r.net.retransmits)),
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
        row["retransmits"] =
            json::Value(static_cast<std::int64_t>(r.net.retransmits));
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
               "(syscalls, framing, acks), so deeper halos close more of the "
               "gap to inproc — exactly the exchange-frequency trade-off the "
               "pattern teaches.\n";

  // --- Sliding-window sweep: raw burst throughput. Rank 0 pushes a fixed
  // burst of frames at rank 1; window 1 is the stop-and-wait protocol this
  // transport replaced (one frame in flight, one ack round-trip per frame),
  // so the column is the before/after comparison in one table.
  constexpr int kBurstFrames = 256;
  constexpr std::size_t kBurstBytes = 4096;
  std::cout << "\nsliding-window burst throughput — 2 tcp ranks, "
            << kBurstFrames << " x " << kBurstBytes / 1024
            << " KiB frames (window 1 = stop-and-wait baseline):\n";
  TextTable burst_table(
      {"window", "wall ms", "MB/s", "stalls", "acks", "retransmits"});
  json::Array burst_rows;
  for (const int window : {1, 2, 4, 8, 16, 32}) {
    mpp::RunOptions run;
    run.transport = mpp::TransportKind::kTcp;
    run.tcp.window_frames = window;
    WallTimer timer;
    const mpp::RunOutcome out = mpp::run_world(2, run, [](mpp::Comm& comm) {
      std::vector<std::byte> buf(kBurstBytes);
      if (comm.rank() == 0) {
        for (int i = 0; i < kBurstFrames; ++i)
          comm.send(1, 1, std::span<const std::byte>(buf));
        std::uint32_t done = 0;
        comm.recv(1, 2, &done, 1);  // completion: every frame arrived
      } else {
        for (int i = 0; i < kBurstFrames; ++i)
          comm.recv(0, 1, buf.data(), buf.size());
        const std::uint32_t done = 1;
        comm.send(0, 2, &done, 1);
      }
    });
    const double ms = timer.elapsed_ms();
    const double mb_per_s =
        static_cast<double>(kBurstFrames) * kBurstBytes / 1e6 / (ms / 1e3);
    burst_table.row(
        {TextTable::num(static_cast<std::int64_t>(window)),
         TextTable::num(ms, 1), TextTable::num(mb_per_s, 1),
         TextTable::num(static_cast<std::int64_t>(out.net.window_stalls)),
         TextTable::num(static_cast<std::int64_t>(out.net.acks_sent)),
         TextTable::num(static_cast<std::int64_t>(out.net.retransmits))});
    json::Object row;
    row["window"] = json::Value(static_cast<std::int64_t>(window));
    row["frames"] = json::Value(static_cast<std::int64_t>(kBurstFrames));
    row["frame_bytes"] = json::Value(static_cast<std::int64_t>(kBurstBytes));
    row["wall_ms"] = json::Value(ms);
    row["mb_per_s"] = json::Value(mb_per_s);
    row["window_stalls"] =
        json::Value(static_cast<std::int64_t>(out.net.window_stalls));
    row["acks_sent"] =
        json::Value(static_cast<std::int64_t>(out.net.acks_sent));
    row["retransmits"] =
        json::Value(static_cast<std::int64_t>(out.net.retransmits));
    burst_rows.push_back(json::Value(std::move(row)));
  }
  burst_table.print(std::cout);
  std::cout << "\nexpected shape: throughput rises (or stays flat) with the "
               "window — stop-and-wait pays one ack round-trip per frame, "
               "the pipelined window amortizes it over the whole burst.\n";

  // --- Sliding-window sweep over the real halo exchange.
  std::cout << "\nsliding-window halo sweep — tcp, 4 ranks, k = 1:\n";
  TextTable win_table(
      {"window", "wall ms", "us/exchange", "stalls", "acks", "correct"});
  json::Array win_rows;
  for (const int window : {1, 2, 4, 8, 16, 32}) {
    DistributedOptions opt;
    opt.ranks = 4;
    opt.halo_depth = 1;
    opt.run.transport = mpp::TransportKind::kTcp;
    opt.run.tcp.window_frames = window;
    WallTimer timer;
    const DistributedResult r = stabilize_distributed(net_initial, opt);
    const double ms = timer.elapsed_ms();
    const bool correct = r.field.same_interior(net_reference);
    win_table.row(
        {TextTable::num(static_cast<std::int64_t>(window)),
         TextTable::num(ms, 1), TextTable::num(ms * 1e3 / r.rounds, 1),
         TextTable::num(static_cast<std::int64_t>(r.net.window_stalls)),
         TextTable::num(static_cast<std::int64_t>(r.net.acks_sent)),
         correct ? "yes" : "NO"});
    json::Object row;
    row["window"] = json::Value(static_cast<std::int64_t>(window));
    row["wall_ms"] = json::Value(ms);
    row["us_per_exchange"] = json::Value(ms * 1e3 / r.rounds);
    row["window_stalls"] =
        json::Value(static_cast<std::int64_t>(r.net.window_stalls));
    row["acks_sent"] =
        json::Value(static_cast<std::int64_t>(r.net.acks_sent));
    row["retransmits"] =
        json::Value(static_cast<std::int64_t>(r.net.retransmits));
    row["correct"] = json::Value(correct);
    win_rows.push_back(json::Value(std::move(row)));
  }
  win_table.print(std::cout);

  json::Object doc;
  doc["grid"] = json::Value(static_cast<std::int64_t>(kNetSize));
  doc["grains"] = json::Value(static_cast<std::int64_t>(20000));
  doc["sweep"] = json::Value(std::move(net_rows));
  doc["burst_window_sweep"] = json::Value(std::move(burst_rows));
  doc["window_sweep"] = json::Value(std::move(win_rows));
  std::filesystem::create_directories("out");
  std::ofstream("out/BENCH_net.json")
      << json::Value(std::move(doc)).dump(true) << "\n";
  std::cout << "\nwrote out/BENCH_net.json\n";
  return 0;
}

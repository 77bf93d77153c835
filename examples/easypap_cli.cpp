// EASYPAP-style command-line driver for the sandpile kernel.
//
// Mirrors the workflow the paper's student quote praises ("We just add a
// few lines of code, we compile and it is ready for command line
// testing"): pick a variant and a configuration on the command line, run,
// and inspect images/traces/plots.
//
//   $ ./easypap_cli --variant omp-lazy-sync --size 512 --tile 32
//                   --config center --grains 100000
//                   --dump out/state.ppm --trace out/trace.json
//                   --metrics out/metrics.txt
//                   --monitor out/iters.csv --check
//
// Options:
//   --variant NAME   one of the 8 solver variants (default omp-lazy-sync)
//   --config NAME    center | uniform | sparse (default center)
//   --size N         grid side (default 256)
//   --grains G       grains for center/uniform configs (default 100000)
//   --density D      sparse config density (default 0.02)
//   --seed S         sparse config seed (default 42)
//   --tile T         tile side (default 32)
//   --threads N      OpenMP threads (default: runtime default)
//   --schedule P     static | static1 | dynamic | guided | ws
//                    (default dynamic; ws = work-stealing task runtime)
//   --iterations N   cap iterations (default: run to fixed point)
//   --dump PATH      write the final state as PPM
//   --trace PATH     write the per-task trace; a .json path produces a
//                    Chrome trace-event file (open in Perfetto or
//                    chrome://tracing) with runtime spans merged in, any
//                    other path the per-task CSV
//   --metrics PATH   write the obs::Registry counters after the run; a
//                    .json path dumps JSON, any other path Prometheus text
//   --monitor PATH   write per-iteration wall times CSV
//   --check          verify against the sequential reference
//   --list           list variants and exit
//
// Distributed mode (replaces the variant run when --ranks is given):
//   --ranks N            distribute over N message-passing ranks (1-D)
//   --halo K             ghost-cell halo depth (default 1)
//   --transport NAME     inproc | tcp (default inproc)
//   --spawn              ranks are real worker processes (implies tcp)
//   --net-fault-sever-after N hard-kill each link after its Nth frame
//   --checkpoint-every N cut a checkpoint every N exchange rounds
//   --max-restarts M     respawn+restore a failed world up to M times
//   --checkpoint-dir P   keep checkpoints in P (enables resuming an
//                        interrupted run on the next invocation)
//   --platform FILE      machine-model JSON (src/machine codec): report the
//                        model's predicted halo-exchange cost next to the
//                        measured run (calibrate a file with
//                        bench_machine_model, then compare)
#include <algorithm>
#include <iostream>

#include "core/args.hpp"
#include "core/table.hpp"
#include "machine/codec.hpp"
#include "pap/monitor.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"
#include "sandpile/variants.hpp"
#include "trace/trace.hpp"

namespace {

using namespace peachy;
using namespace peachy::sandpile;

Variant variant_by_name(const std::string& name) {
  for (Variant v : all_variants())
    if (to_string(v) == name) return v;
  throw Error("unknown variant \"" + name + "\" (use --list)");
}

pap::Schedule schedule_by_name(const std::string& name) {
  if (name == "static") return pap::Schedule::kStatic;
  if (name == "static1") return pap::Schedule::kStaticChunk1;
  if (name == "dynamic") return pap::Schedule::kDynamic;
  if (name == "guided") return pap::Schedule::kGuided;
  if (name == "ws" || name == "workstealing")
    return pap::Schedule::kWorkStealing;
  throw Error("unknown schedule \"" + name + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::set<std::string> flags = {"check", "list", "spawn"};
    const Args args(argc, argv, flags);
    const auto unknown = args.unknown_options(
        {"variant", "config", "size", "grains", "density", "seed", "tile",
         "threads", "schedule", "iterations", "dump", "trace", "metrics",
         "monitor", "check", "list", "ranks", "halo", "transport", "spawn",
         "net-fault-sever-after", "checkpoint-every", "max-restarts",
         "checkpoint-dir", "metrics-port", "metrics-port-file", "platform"});
    if (!unknown.empty()) {
      std::cerr << "unknown option --" << unknown.front() << "\n";
      return 2;
    }
    if (args.has("list")) {
      for (Variant v : all_variants()) std::cout << to_string(v) << "\n";
      return 0;
    }

    const int size = args.get_int("size", 256);
    const auto grains =
        static_cast<Cell>(args.get_int("grains", 100000));
    const std::string config = args.get("config", "center");

    Field field = [&]() -> Field {
      if (config == "center") return center_pile(size, size, grains);
      if (config == "uniform") return uniform_pile(size, size, grains);
      if (config == "sparse")
        return sparse_random_pile(
            size, size, args.get_double("density", 0.02), 4,
            std::max<Cell>(8, grains / 100),
            static_cast<std::uint64_t>(args.get_int("seed", 42)));
      throw Error("unknown config \"" + config + "\"");
    }();
    const Field initial = field;

    if (args.has("ranks")) {
      // Distributed mode: the grid is block-partitioned over message-passing
      // ranks instead of tiled over OpenMP threads.
      DistributedOptions opt;
      opt.ranks = args.get_int("ranks", 2);
      opt.halo_depth = args.get_int("halo", 1);
      opt.run.transport =
          mpp::transport_from_string(args.get("transport", "inproc"));
      opt.run.spawn = args.has("spawn");
      if (opt.run.spawn) opt.run.transport = mpp::TransportKind::kTcp;
      opt.run.tcp.fault.sever_after =
          args.get_int("net-fault-sever-after", -1);
      opt.checkpoint_every = args.get_int("checkpoint-every", 0);
      opt.run.resilience.max_restarts = args.get_int("max-restarts", 0);
      opt.run.resilience.checkpoint_dir = args.get("checkpoint-dir", "");
      // In distributed mode --trace means the *cluster* trace: rank 0
      // merges every rank's spans into one clock-corrected Perfetto file.
      // --metrics-port serves the rank-labeled rollup live at /metrics.
      const std::string cluster_trace = args.get("trace", "");
      const int metrics_port = args.get_int("metrics-port", -1);
      if (!cluster_trace.empty() || metrics_port >= 0) {
        opt.run.telemetry.enabled = true;
        opt.run.telemetry.trace_path = cluster_trace;
        opt.run.telemetry.metrics_port = metrics_port;
        opt.run.telemetry.port_file = args.get("metrics-port-file", "");
      }

      const DistributedResult out = stabilize_distributed(initial, opt);

      TextTable table({"metric", "value"});
      table.row({"mode", std::string("distributed (") +
                             (opt.run.spawn ? "spawned processes + tcp"
                                            : mpp::to_string(opt.run.transport)) +
                             ")"});
      table.row({"config", config + " " + std::to_string(size) + "x" +
                               std::to_string(size)});
      table.row({"ranks", TextTable::num(static_cast<std::int64_t>(opt.ranks))});
      table.row({"halo depth",
                 TextTable::num(static_cast<std::int64_t>(opt.halo_depth))});
      table.row({"exchange rounds",
                 TextTable::num(static_cast<std::int64_t>(out.rounds))});
      table.row({"iterations",
                 TextTable::num(static_cast<std::int64_t>(out.iterations))});
      table.row({"stable", out.stable ? "yes" : "no (capped)"});
      table.row({"messages", TextTable::num(static_cast<std::int64_t>(
                                 out.comm.messages_sent))});
      table.row({"MB sent",
                 TextTable::num(static_cast<double>(out.comm.bytes_sent) / 1e6,
                                2)});
      table.row({"restarts",
                 TextTable::num(static_cast<std::int64_t>(out.restarts))});

      if (args.has("platform")) {
        // Predict the halo-exchange communication from the machine model:
        // each exchange round, a rank pair trades k halo rows of W + 2k
        // cells each way across a node boundary (the pessimistic
        // placement — one rank per node).
        const machine::Machine mach =
            machine::load_machine(args.get("platform", ""));
        const machine::CoreId src{0, 0, 0, 0};
        const machine::CoreId dst{0, mach.groups[0].nodes > 1 ? 1 : 0, 0, 0};
        const double halo_bytes =
            static_cast<double>(size + 2 * opt.halo_depth) * opt.halo_depth *
            sizeof(Cell);
        const double per_round_s =
            2.0 * machine::predict_transfer_s(mach, src, dst, halo_bytes);
        table.row({"model exchange/round ms",
                   TextTable::num(per_round_s * 1e3, 3)});
        table.row({"model comm total ms",
                   TextTable::num(per_round_s * out.rounds * 1e3, 2)});
      }

      if (args.has("check")) {
        Field reference = initial;
        stabilize_reference(reference);
        const bool ok = out.stable && out.field.same_interior(reference);
        table.row({"matches reference", ok ? "yes" : "NO"});
        if (!ok && out.stable) {
          table.print(std::cout);
          return 1;
        }
      }
      table.print(std::cout);

      if (args.has("dump")) {
        out.field.render().write_ppm(args.get("dump", ""));
        std::cout << "state image: " << args.get("dump", "") << "\n";
      }
      if (!cluster_trace.empty())
        std::cout << "cluster trace: " << cluster_trace
                  << " (open in Perfetto / chrome://tracing)\n";
      return 0;
    }

    VariantOptions opt;
    opt.tile_h = opt.tile_w = args.get_int("tile", 32);
    opt.threads = args.get_int("threads", 0);
    opt.schedule = schedule_by_name(args.get("schedule", "dynamic"));
    opt.max_iterations = args.get_int("iterations", 0);
    const std::string trace_path = args.get("trace", "");
    const bool json_trace =
        trace_path.size() >= 5 &&
        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0;
    // A .json trace comes from the obs tracer (tiles + runtime spans, one
    // Perfetto row per thread); the CSV path keeps the worker-indexed
    // TraceRecorder.
    TraceRecorder trace(256);
    if (args.has("trace") && !json_trace) opt.trace = &trace;
    pap::Monitor monitor;
    if (args.has("monitor")) opt.on_iteration = monitor.hook();
    if (json_trace || args.has("metrics")) obs::set_enabled(true);

    const Variant variant =
        variant_by_name(args.get("variant", "omp-lazy-sync"));
    const VariantOutcome out = run_variant(variant, field, opt);

    TextTable table({"metric", "value"});
    table.row({"variant", to_string(variant)});
    table.row({"config", config + " " + std::to_string(size) + "x" +
                             std::to_string(size)});
    table.row({"iterations",
               TextTable::num(static_cast<std::int64_t>(out.run.iterations))});
    table.row({"stable", out.run.stable ? "yes" : "no (capped)"});
    table.row({"tile tasks",
               TextTable::num(static_cast<std::int64_t>(out.run.tasks))});
    table.row({"wall ms",
               TextTable::num(static_cast<double>(out.run.elapsed_ns) / 1e6, 2)});
    table.row({"grains kept", TextTable::num(field.interior_grains())});

    if (args.has("check")) {
      Field reference = initial;
      stabilize_reference(reference);
      const bool ok = out.run.stable && field.same_interior(reference);
      table.row({"matches reference", ok ? "yes" : "NO"});
      if (!ok && out.run.stable) {
        table.print(std::cout);
        return 1;
      }
    }
    table.print(std::cout);

    if (args.has("dump")) {
      field.render().write_ppm(args.get("dump", ""));
      std::cout << "state image: " << args.get("dump", "") << "\n";
    }
    if (args.has("trace")) {
      if (json_trace) {
        obs::Tracer::global().write_chrome_json(trace_path);
        std::cout << "chrome trace: " << trace_path
                  << " (open in Perfetto / chrome://tracing)\n";
      } else {
        trace.write_csv(trace_path);
        std::cout << "task trace: " << trace_path << "\n";
      }
    }
    if (args.has("metrics")) {
      obs::Registry::global().write(args.get("metrics", ""));
      std::cout << "metrics: " << args.get("metrics", "") << "\n";
    }
    if (args.has("monitor")) {
      monitor.write_csv(args.get("monitor", ""));
      std::cout << "per-iteration samples: " << args.get("monitor", "") << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

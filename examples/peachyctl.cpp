// peachyctl — command-line client for the peachyd job service.
//
//   peachyctl submit --kind sandpile --tenant alice --ranks 2
//             --grains 60000 --wait
//   peachyctl status 3            peachyctl result 3
//   peachyctl list [--tenant a]   peachyctl cancel 3
//   peachyctl stats               peachyctl shutdown
//
// Talks the framed wire protocol to --host/--port (default
// 127.0.0.1:7411). `submit --wait` polls until the job is terminal and
// pretty-prints the result blob; without --wait it prints the id and
// returns immediately.
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/args.hpp"
#include "core/error.hpp"
#include "core/table.hpp"
#include "sandpile/result_blob.hpp"
#include "svc/client.hpp"
#include "svc/runner.hpp"

namespace {

using namespace peachy;

int usage() {
  std::cerr
      << "usage: peachyctl [--host H] [--port N] COMMAND\n"
      << "  submit --kind sandpile|dmr|wfsim [--tenant T] [--name S]\n"
      << "         [--ranks N] [--isolation threads|process]\n"
      << "         [--deadline-ms N] [--wait]\n"
      << "         sandpile: [--height N] [--width N] [--grains N]\n"
      << "         dmr:      [--words N] [--seed N] [--vocabulary N]\n"
      << "         wfsim:    [--steps N] [--nodes N] [--pstate N]\n"
      << "  status ID | result ID | cancel ID | list [--tenant T]\n"
      << "  stats | shutdown\n";
  return 2;
}

void print_status(const svc::JobStatus& s) {
  std::cout << "job " << s.id << ": " << svc::to_string(s.state) << " ("
            << svc::to_string(s.kind) << ", tenant " << s.tenant;
  if (!s.name.empty()) std::cout << ", \"" << s.name << "\"";
  if (s.restarts > 0) std::cout << ", restarts " << s.restarts;
  if (s.peak_rss_bytes > 0)
    std::cout << ", peak rss " << (s.peak_rss_bytes >> 10) << " KiB";
  std::cout << ")";
  if (!s.error.empty()) std::cout << " error: " << s.error;
  std::cout << "\n";
}

void print_result(const svc::Client& client, const svc::JobStatus& status) {
  const std::vector<std::byte> blob = client.result(status.id);
  if (status.kind == svc::JobKind::kSandpile) {
    const auto r = sandpile::detail::decode_result(blob);
    std::cout << "sandpile " << r.field.height() << "x" << r.field.width()
              << ": " << (r.aborted ? "aborted" : r.stable ? "stable"
                                                           : "round budget")
              << " after " << r.rounds << " exchange rounds, "
              << r.field.interior_grains() << " grains on the board\n";
  } else if (status.kind == svc::JobKind::kDmr) {
    const auto counts = svc::decode_dmr_result(blob);
    std::uint64_t total = 0;
    for (const auto& [word, count] : counts) total += count;
    std::cout << "word count: " << counts.size() << " distinct words, "
              << total << " total; top of the list:\n";
    TextTable table({"word", "count"});
    for (std::size_t i = 0; i < counts.size() && i < 10; ++i)
      table.row({counts[i].first,
                 TextTable::num(static_cast<std::int64_t>(counts[i].second))});
    table.print(std::cout);
  } else if (status.kind == svc::JobKind::kWfsim) {
    TextTable table({"cloud fraction", "makespan s", "gCO2"});
    for (const svc::WfsimRow& row : svc::decode_wfsim_result(blob))
      table.row({TextTable::num(row.fraction), TextTable::num(row.makespan_s),
                 TextTable::num(row.total_gco2)});
    table.print(std::cout);
  } else {
    std::cout << "result: " << blob.size() << " bytes\n";
  }
}

std::uint64_t id_arg(const Args& args) {
  if (args.positional().size() < 2)
    throw Error("this command needs a job id");
  return static_cast<std::uint64_t>(std::stoull(args.positional()[1]));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, /*flag_names=*/{"wait"});
  if (args.positional().empty()) return usage();
  const std::string command = args.positional()[0];
  const svc::Client client(args.get("host", "127.0.0.1"),
                           args.get_int("port", 7411));
  try {
    if (command == "submit") {
      svc::JobSpec spec;
      spec.kind = svc::job_kind_from_string(args.get("kind", "sandpile"));
      spec.tenant = args.get("tenant", "default");
      spec.name = args.get("name", "");
      spec.ranks = static_cast<std::uint32_t>(args.get_int("ranks", 2));
      spec.isolation =
          svc::isolation_from_string(args.get("isolation", "default"));
      spec.deadline_ms =
          static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
      spec.sandpile.height =
          static_cast<std::uint32_t>(args.get_int("height", 64));
      spec.sandpile.width =
          static_cast<std::uint32_t>(args.get_int("width", 64));
      spec.sandpile.grains =
          static_cast<std::uint32_t>(args.get_int("grains", 60000));
      spec.dmr.words = static_cast<std::uint32_t>(args.get_int("words", 20000));
      spec.dmr.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      spec.dmr.vocabulary =
          static_cast<std::uint32_t>(args.get_int("vocabulary", 128));
      spec.wfsim.sweep_steps =
          static_cast<std::uint32_t>(args.get_int("steps", 8));
      spec.wfsim.nodes_on =
          static_cast<std::uint32_t>(args.get_int("nodes", 64));
      spec.wfsim.pstate =
          static_cast<std::uint32_t>(args.get_int("pstate", 6));
      const svc::SubmitResult sub = client.submit(spec);
      if (!sub.accepted) {
        std::cerr << "rejected: " << sub.reject_reason << "\n";
        return 1;
      }
      std::cout << "submitted job " << sub.id << "\n";
      if (args.has("wait")) {
        const svc::JobStatus done =
            client.await(sub.id, std::chrono::minutes(30));
        print_status(done);
        if (done.state == svc::JobState::kDone) print_result(client, done);
        return done.state == svc::JobState::kDone ? 0 : 1;
      }
    } else if (command == "status") {
      print_status(client.status(id_arg(args)));
    } else if (command == "result") {
      const svc::JobStatus status = client.status(id_arg(args));
      print_status(status);
      if (status.state == svc::JobState::kDone) print_result(client, status);
    } else if (command == "cancel") {
      std::cout << client.cancel(id_arg(args)) << "\n";
    } else if (command == "list") {
      TextTable table({"id", "state", "kind", "tenant", "name"});
      for (const svc::JobBrief& b : client.list(args.get("tenant", "")))
        table.row({TextTable::num(static_cast<std::int64_t>(b.id)),
                   svc::to_string(b.state), svc::to_string(b.kind), b.tenant,
                   b.name});
      table.print(std::cout);
    } else if (command == "stats") {
      const svc::ServiceStats s = client.stats();
      std::cout << s.queued << " queued, " << s.running << " running, "
                << s.busy_ranks << "/" << s.pool_ranks << " ranks busy; "
                << s.submitted << " submitted, " << s.completed
                << " completed, " << s.rejected << " rejected\n";
    } else if (command == "shutdown") {
      client.shutdown();
      std::cout << "shutdown requested\n";
    } else {
      return usage();
    }
  } catch (const Error& e) {
    std::cerr << "peachyctl: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

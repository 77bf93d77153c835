#include "svc/runner.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "dmr/job.hpp"
#include "mpp/mpp.hpp"
#include "mpp/pool.hpp"
#include "sandpile/distributed.hpp"
#include "sandpile/field.hpp"
#include "sandpile/result_blob.hpp"
#include "wfsim/montage.hpp"
#include "wfsim/platform.hpp"
#include "wfsim/simulate.hpp"

namespace peachy::svc {

namespace {

mpp::RunOptions world_options(const RunnerOptions& options) {
  mpp::RunOptions run;
  run.resilience.max_restarts = options.max_restarts;
  run.resilience.checkpoint_dir = options.checkpoint_dir;
  run.resilience.remove_checkpoint_on_success = !options.keep_checkpoint;
  if (options.isolation == Isolation::kProcess) {
    run.transport = mpp::TransportKind::kTcp;
    run.spawn = true;
    // The spawned serve/wait budget is connect+recv, which must cover the
    // whole job runtime; raise it so long jobs are bounded by the
    // SpawnControl deadline (when set), not the rendezvous timeout.
    run.tcp.recv_timeout_ms = std::max(run.tcp.recv_timeout_ms, 120000);
    run.spawn_control.limits.address_space_bytes = options.rlimit_as_bytes;
    run.spawn_control.limits.cpu_seconds = options.rlimit_cpu_seconds;
    run.spawn_control.deadline_ms = options.deadline_ms;
    run.spawn_control.term_grace_ms = options.term_grace_ms;
    run.spawn_control.should_abort = options.should_abort;
    run.spawn_control.flight_dir = options.flight_dir;
  } else {
    run.pool = options.pool;
  }
  return run;
}

// The hook the SPMD body polls at its cancellation cuts. Threaded jobs ask
// the daemon directly; process-isolated bodies run in forked workers where
// the daemon's hook is dead weight — there the probe is the SIGTERM latch
// the supervisor's escalation sets.
std::function<bool()> body_abort_hook(const RunnerOptions& options) {
  if (options.isolation == Isolation::kProcess)
    return [] { return mpp::spawn_abort_requested(); };
  return options.should_abort;
}

RunnerOutcome run_sandpile(const JobSpec& spec, const RunnerOptions& options) {
  const SandpileParams& p = spec.sandpile;
  const sandpile::Field initial =
      sandpile::center_pile(static_cast<int>(p.height),
                            static_cast<int>(p.width), p.grains);
  sandpile::DistributedOptions opt;
  opt.ranks = static_cast<int>(spec.ranks);
  opt.halo_depth = static_cast<int>(p.halo_depth);
  opt.checkpoint_every = static_cast<int>(p.checkpoint_every);
  opt.run = world_options(options);
  opt.should_abort = body_abort_hook(options);
  const sandpile::DistributedResult r =
      sandpile::stabilize_distributed(initial, opt);
  RunnerOutcome out;
  out.result =
      sandpile::detail::encode_result(r.field, r.stable, r.rounds, r.aborted);
  out.aborted = r.aborted;
  out.restarts = r.restarts;
  out.peak_rss_bytes = r.peak_rss_bytes;
  return out;
}

// The tenant's "input files": a deterministic corpus every rank (and every
// re-run after a daemon death) regenerates identically from the seed.
std::vector<std::pair<int, std::string>> synth_corpus(const DmrParams& p) {
  std::uint64_t x = p.seed ? p.seed : 1;
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint32_t kWordsPerLine = 8;
  const std::uint32_t lines = (p.words + kWordsPerLine - 1) / kWordsPerLine;
  std::vector<std::pair<int, std::string>> corpus;
  corpus.reserve(lines);
  std::uint32_t emitted = 0;
  for (std::uint32_t i = 0; i < lines; ++i) {
    std::string line;
    for (std::uint32_t w = 0; w < kWordsPerLine && emitted < p.words; ++w) {
      if (w) line += ' ';
      line += 'w';
      line += std::to_string(next() % std::max(p.vocabulary, 1u));
      ++emitted;
    }
    corpus.emplace_back(static_cast<int>(i), std::move(line));
  }
  return corpus;
}

RunnerOutcome run_dmr(const JobSpec& spec, const RunnerOptions& options) {
  const DmrParams& p = spec.dmr;
  dmr::Job<int, std::string, std::string, std::uint64_t, std::string,
           std::uint64_t>
      job;
  // fault_abort_at is the crash-containment test hook: the mapper abort()s
  // the moment it has emitted that many words. Counted per process — in
  // process isolation that is one worker's tally, which is all the tests
  // need (some worker dies; which one is irrelevant).
  const auto mapped = std::make_shared<std::atomic<std::uint32_t>>(0);
  const std::uint32_t abort_at = p.fault_abort_at;
  job.mapper([mapped, abort_at](const int&, const std::string& line,
                                mr::Emitter<std::string, std::uint64_t>& out) {
    std::size_t start = 0;
    while (start < line.size()) {
      std::size_t end = line.find(' ', start);
      if (end == std::string::npos) end = line.size();
      if (end > start) {
        if (abort_at != 0 &&
            mapped->fetch_add(1, std::memory_order_relaxed) + 1 >= abort_at)
          std::abort();
        out.emit(line.substr(start, end - start), 1);
      }
      start = end + 1;
    }
  });
  const auto sum = [](const std::string& key,
                      const std::vector<std::uint64_t>& values,
                      mr::Emitter<std::string, std::uint64_t>& out) {
    std::uint64_t total = 0;
    for (const std::uint64_t v : values) total += v;
    out.emit(key, total);
  };
  job.combiner(sum).reducer(sum);
  dmr::Options opt;
  opt.ranks = static_cast<int>(spec.ranks);
  opt.map_tasks = static_cast<int>(p.map_tasks);
  opt.partitions = static_cast<int>(p.partitions);
  opt.map_epochs = static_cast<int>(p.map_epochs);
  opt.checkpoint_every = static_cast<int>(p.checkpoint_every);
  opt.run = world_options(options);
  opt.should_abort = body_abort_hook(options);
  job.options(std::move(opt));
  const auto r = job.run(synth_corpus(p));
  RunnerOutcome out;
  append_dmr_result(out.result, r.output);
  out.aborted = r.aborted;
  out.restarts = r.restarts;
  out.peak_rss_bytes = r.peak_rss_bytes;
  return out;
}

RunnerOutcome run_wfsim(const JobSpec& spec, const RunnerOptions& options) {
  const WfsimParams& p = spec.wfsim;
  PEACHY_REQUIRE(p.sweep_steps >= 1, "wfsim sweep needs >= 1 step");
  // Rank r simulates steps r, r+R, r+2R, ... and rank 0 gathers the rows.
  // Placement sweeps have no cross-step state, so there is nothing to
  // checkpoint — the whole sweep re-runs after a daemon death, which is
  // fine because each step is milliseconds of simulated dispatching.
  mpp::RunOptions run = world_options(options);
  run.resilience.checkpoint_dir.clear();
  const std::uint32_t steps = p.sweep_steps;
  const std::function<bool()> abort_hook = body_abort_hook(options);
  const mpp::RunOutcome outcome = mpp::run_world(
      static_cast<int>(spec.ranks), run, [&](mpp::Comm& comm) {
        const int rank = comm.rank();
        const int R = comm.size();
        const wf::Workflow wf = wf::make_montage();
        const wf::Platform platform = wf::eduwrench_platform();
        const int levels = wf.num_levels();
        // Every rank runs the same iteration count (idle tail iterations
        // included) so the cancel collective, polled every 4th iteration,
        // lines up; rank r owns steps r, r+R, r+2R, ...
        const std::uint32_t iters =
            (steps + static_cast<std::uint32_t>(R) - 1) /
            static_cast<std::uint32_t>(R);
        bool aborted = false;
        std::vector<std::int64_t> mine;  // (step, makespan bits, gco2 bits)
        for (std::uint32_t it = 0; it < iters; ++it) {
          if (abort_hook && it % 4 == 0) {
            const bool stop_mine = rank == 0 && abort_hook();
            if (comm.allreduce_or(stop_mine)) {
              aborted = true;
              break;
            }
          }
          const std::uint32_t s =
              static_cast<std::uint32_t>(rank) +
              it * static_cast<std::uint32_t>(R);
          if (s >= steps) continue;
          const double fraction =
              steps == 1 ? 0.0 : static_cast<double>(s) / (steps - 1);
          wf::RunConfig cfg;
          cfg.nodes_on = static_cast<int>(p.nodes_on);
          cfg.pstate = static_cast<int>(p.pstate);
          cfg.placement = wf::Placement::level_fractions(
              wf, std::vector<double>(static_cast<std::size_t>(levels),
                                      fraction));
          const wf::SimResult r = wf::simulate(wf, platform, cfg);
          mine.push_back(static_cast<std::int64_t>(s));
          mine.push_back(std::bit_cast<std::int64_t>(r.makespan_s));
          mine.push_back(std::bit_cast<std::int64_t>(r.total_gco2));
        }
        const std::vector<std::int64_t> all = comm.gather(0, mine);
        if (rank != 0) return;
        PEACHY_CHECK(all.size() % 3 == 0);
        if (!aborted)
          PEACHY_CHECK(all.size() == static_cast<std::size_t>(steps) * 3);
        std::map<std::int64_t, WfsimRow> rows;
        for (std::size_t i = 0; i < all.size(); i += 3)
          rows[all[i]] = {
              steps == 1 ? 0.0 : static_cast<double>(all[i]) / (steps - 1),
              std::bit_cast<double>(all[i + 1]),
              std::bit_cast<double>(all[i + 2])};
        std::vector<WfsimRow> sweep;
        for (const auto& [s, row] : rows) sweep.push_back(row);
        std::vector<std::byte> blob;
        // Internal prefix for the launcher (stripped before the blob is
        // stored): whether the cancel collective cut the sweep short.
        bytes::append_u32(blob, aborted ? 1 : 0);
        append_wfsim_result(blob, sweep);
        comm.set_result(blob.data(), blob.size());
      });
  RunnerOutcome out;
  bytes::Reader in(outcome.rank0_result);
  out.aborted = in.u32() != 0;
  out.result.assign(outcome.rank0_result.begin() + 4,
                    outcome.rank0_result.end());
  out.restarts = outcome.restarts;
  out.peak_rss_bytes = outcome.peak_rss_bytes;
  return out;
}

}  // namespace

RunnerOutcome run_job(const JobSpec& spec, const RunnerOptions& options) {
  PEACHY_REQUIRE(options.isolation != Isolation::kDefault,
                 "caller must resolve Isolation::kDefault before running");
  if (options.isolation == Isolation::kThreads)
    PEACHY_REQUIRE(options.pool != nullptr, "runner needs a rank pool");
  if (options.should_abort && options.should_abort()) {
    RunnerOutcome out;
    out.aborted = true;
    return out;
  }
  switch (spec.kind) {
    case JobKind::kSandpile: return run_sandpile(spec, options);
    case JobKind::kDmr: return run_dmr(spec, options);
    case JobKind::kWfsim: return run_wfsim(spec, options);
  }
  throw Error("unreachable job kind");
}

void append_dmr_result(std::vector<std::byte>& out, const WordCounts& pairs) {
  bytes::append_u32(out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [word, count] : pairs) {
    bytes::append_string(out, word);
    bytes::append_u64(out, count);
  }
}

WordCounts decode_dmr_result(const std::vector<std::byte>& blob) {
  bytes::Reader in(blob);
  // A pair is at least a u32 string length and a u64 count.
  WordCounts pairs(in.count(in.u32(), 12));
  for (auto& [word, count] : pairs) {
    word = in.string();
    count = in.u64();
  }
  return pairs;
}

void append_wfsim_result(std::vector<std::byte>& out,
                         const std::vector<WfsimRow>& rows) {
  bytes::append_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const WfsimRow& row : rows)
    for (const double v : {row.fraction, row.makespan_s, row.total_gco2})
      bytes::append_f64(out, v);
}

std::vector<WfsimRow> decode_wfsim_result(const std::vector<std::byte>& blob) {
  bytes::Reader in(blob);
  std::vector<WfsimRow> rows(in.count(in.u32(), 24));  // three f64 per row
  for (WfsimRow& row : rows) {
    row.fraction = in.f64();
    row.makespan_s = in.f64();
    row.total_gco2 = in.f64();
  }
  return rows;
}

}  // namespace peachy::svc

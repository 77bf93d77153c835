#include "workload.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "svc/queue.hpp"

namespace perfbench {

using namespace peachy;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    // Small jobs: a few ms of work, so the service path (protocol,
    // admission, record commits, polls, dispatch, lease or fork) is nearly
    // all of a job's latency. No checkpoints: kernel and checkpoint changes
    // must not move these two.
    Workload small;
    small.clients = 4;
    small.ranks = 2;
    small.layer_reps = 15;
    small.sandpile = {16, 16, 2000, 1, 0};
    small.dmr.words = 20000;
    small.dmr.checkpoint_every = 0;
    small.wfsim.sweep_steps = 2;

    Workload threads = small;
    threads.name = "svc-small-threads";
    threads.isolation = svc::Isolation::kThreads;
    threads.jobs_per_second = 300;

    Workload process = small;
    process.name = "svc-small-process";
    process.isolation = svc::Isolation::kProcess;
    process.jobs_per_second = 45;

    // Heavy jobs: service overhead is well under 1% of a job; the kernel,
    // halo and shuffle traffic over tcp, the checkpoint funnel to rank 0
    // (service defaults: every 4 rounds, every epoch) and the wfsim event
    // engine carry it.
    Workload heavy;
    heavy.name = "svc-heavy-process";
    heavy.isolation = svc::Isolation::kProcess;
    heavy.clients = 1;
    heavy.ranks = 4;
    heavy.jobs_per_second = 2;
    heavy.layer_reps = 3;
    heavy.sandpile = {96, 96, 30000, 1, 4};
    heavy.dmr.words = 2000000;
    heavy.dmr.vocabulary = 4096;
    heavy.dmr.map_tasks = 16;
    heavy.dmr.partitions = 8;
    heavy.dmr.map_epochs = 2;
    heavy.dmr.checkpoint_every = 1;
    heavy.wfsim.sweep_steps = 1024;
    return std::vector<Workload>{threads, process, heavy};
  }();
  return all;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw Error("unknown workload '" + name + "' (known: " + known + ")");
}

int pool_ranks() {
  return std::max(2, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
}

svc::JobSpec job_spec(const Workload& w, svc::JobKind kind) {
  svc::JobSpec spec;
  spec.kind = kind;
  spec.name = std::string("perfbench-") + svc::to_string(kind);
  spec.ranks = static_cast<std::uint32_t>(std::min(w.ranks, pool_ranks()));
  spec.isolation = w.isolation;
  spec.sandpile = w.sandpile;
  spec.dmr = w.dmr;
  spec.wfsim = w.wfsim;
  return spec;
}

std::vector<std::uint64_t> dmr_seeds(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eedc0de5eedc0deULL;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kDmrCorpora; ++i)
    seeds.push_back(splitmix64(state) | 1);  // runner maps seed 0 to 1
  return seeds;
}

std::vector<svc::JobSpec> make_plan(const Workload& w, std::uint64_t seed,
                                    int jobs) {
  Rng rng(seed);
  const std::vector<std::uint64_t> corpora = dmr_seeds(seed);
  std::vector<svc::JobSpec> plan;
  for (int round = 0; round * 3 < jobs; ++round) {
    int kinds[] = {0, 1, 2};
    int tenants[] = {0, 1, 2};
    std::shuffle(std::begin(kinds), std::end(kinds), rng);
    std::shuffle(std::begin(tenants), std::end(tenants), rng);
    for (int i = 0; i < 3; ++i) {
      svc::JobSpec spec = job_spec(w, kKinds[kinds[i]]);
      spec.tenant = "tenant-" + std::to_string(tenants[i]);
      spec.dmr.seed = corpora[static_cast<std::size_t>(
          rng.uniform_int(0, kDmrCorpora - 1))];
      plan.push_back(std::move(spec));
    }
  }
  return plan;
}

std::vector<std::pair<int, std::string>> dmr_corpus(const svc::DmrParams& p) {
  std::uint64_t x = p.seed ? p.seed : 1;
  const std::uint32_t vocabulary = std::max(p.vocabulary, 1u);
  constexpr std::uint32_t kWordsPerLine = 8;
  std::vector<std::pair<int, std::string>> corpus;
  corpus.reserve((p.words + kWordsPerLine - 1) / kWordsPerLine);
  for (std::uint32_t emitted = 0; emitted < p.words;) {
    std::string line;
    for (std::uint32_t w = 0; w < kWordsPerLine && emitted < p.words;
         ++w, ++emitted) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if (w) line += ' ';
      line += 'w';
      line += std::to_string(x % vocabulary);
    }
    corpus.emplace_back(static_cast<int>(corpus.size()), std::move(line));
  }
  return corpus;
}

void prefill_history(const std::string& state_dir) {
  std::filesystem::remove_all(state_dir);
  svc::JobStore store(state_dir);
  // A service that has been up a while: mostly DONE jobs carrying a result
  // the size of a small job's, a few FAILED and CANCELLED ones.
  const std::vector<std::byte> result(1024, std::byte{0x5a});
  for (int i = 0; i < kHistoryJobs; ++i) {
    svc::JobRecord rec;
    rec.id = store.allocate_id();
    rec.spec.kind = kKinds[i % 3];
    rec.spec.tenant = "tenant-" + std::to_string(i % kTenants);
    rec.spec.name = "history";
    if (i % 20 == 7) {
      rec.state = svc::JobState::kFailed;
      rec.error = "worker crashed: history record";
    } else if (i % 20 == 13) {
      rec.state = svc::JobState::kCancelled;
    } else {
      rec.state = svc::JobState::kDone;
      rec.result = result;
    }
    store.put(rec);
  }
}

}  // namespace perfbench

// Workloads of the job-path benchmark and the seeded job-stream generator.
//
// A workload is one job mix driven through peachyd: the three job kinds the
// paper's assignments become (sandpile, dmr, wfsim), at one size, under one
// isolation mode, from a fixed number of closed-loop clients. The daemon
// only ever sees the generated JobSpecs; everything random about a run —
// job order within the mix, tenant assignment, dmr corpus seeds — comes
// from the --seed argument.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "svc/job.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  peachy::svc::Isolation isolation = peachy::svc::Isolation::kThreads;
  int clients = 1;  ///< closed-loop client threads (capped at the pool size)
  int ranks = 2;    ///< gang size of every job (capped at the pool size)
  /// Jobs per second of --seconds: fixes the job count of a run, so the
  /// tail percentile and the per-kind sample sizes do not depend on speed.
  double jobs_per_second = 1;
  int layer_reps = 3;  ///< repetitions of each timed layer call (traced run)
  peachy::svc::SandpileParams sandpile;
  peachy::svc::DmrParams dmr;
  peachy::svc::WfsimParams wfsim;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// Throws peachy::Error naming the known workloads when `name` is unknown.
const Workload& find_workload(const std::string& name);

/// Shared rank budget of the daemon: one rank per online CPU.
int pool_ranks();

inline constexpr peachy::svc::JobKind kKinds[] = {
    peachy::svc::JobKind::kSandpile, peachy::svc::JobKind::kDmr,
    peachy::svc::JobKind::kWfsim};
inline constexpr int kTenants = 3;
/// Distinct dmr corpora per run; each needs an oracle reference at setup.
inline constexpr int kDmrCorpora = 3;

/// The spec of one `kind` job of workload `w` (ranks capped at the pool).
peachy::svc::JobSpec job_spec(const Workload& w, peachy::svc::JobKind kind);

/// The dmr corpus seeds a run draws from.
std::vector<std::uint64_t> dmr_seeds(std::uint64_t seed);

/// `jobs` specs (rounded up to whole rounds of the three kinds). Each round
/// holds every kind once, in a seeded order, each sent to a different
/// tenant in a seeded order; dmr jobs draw their corpus from dmr_seeds().
std::vector<peachy::svc::JobSpec> make_plan(const Workload& w,
                                            std::uint64_t seed, int jobs);

/// The corpus a dmr job's ranks regenerate from its spec: the same
/// xorshift stream svc's runner uses, rebuilt here so the oracle does not
/// share code with the system it checks.
std::vector<std::pair<int, std::string>> dmr_corpus(
    const peachy::svc::DmrParams& p);

/// Fills `state_dir` with a fixed history of terminal job records through
/// JobStore::put, the store size the daemon's startup recovery then reads.
void prefill_history(const std::string& state_dir);
inline constexpr int kHistoryJobs = 1000;

}  // namespace perfbench

// Job model of the peachy job service (DESIGN.md "Job service").
//
// A *job* is one unit of work a tenant submits to peachyd: a sandpile
// stabilization, a distributed MapReduce word count, or a wfsim placement
// sweep. The spec carries everything needed to run it deterministically —
// jobs are replayable by construction, which is what lets a daemon that was
// SIGKILLed mid-job re-dispatch the same spec after restart and (with the
// job's checkpoint directory intact) finish with byte-identical results.
//
// Lifecycle:  QUEUED -> RUNNING -> DONE | FAILED | CANCELLED
// A QUEUED job can also go straight to CANCELLED. Nothing else moves; a
// record in a terminal state never changes again. On daemon restart,
// RUNNING records (the jobs the dead daemon was executing) are demoted back
// to QUEUED with restarts+1 — re-dispatch resumes them from their last
// committed checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bytes.hpp"

namespace peachy::svc {

enum class JobKind : std::uint32_t {
  kSandpile = 1,  ///< distributed stabilization of a center pile
  kDmr = 2,       ///< distributed word count over a seeded synthetic corpus
  kWfsim = 3,     ///< cloud-fraction placement sweep of the Montage workflow
};

const char* to_string(JobKind kind);
/// Parses "sandpile" | "dmr" | "wfsim" (CLI values); throws on others.
JobKind job_kind_from_string(const std::string& name);

enum class JobState : std::uint32_t {
  kQueued = 1,
  kRunning = 2,
  kDone = 3,
  kFailed = 4,
  kCancelled = 5,
};

const char* to_string(JobState state);
inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// Where a job's ranks execute (DESIGN.md "Job service", isolation modes).
enum class Isolation : std::uint32_t {
  kDefault = 0,  ///< whatever DaemonOptions::default_isolation says
  kThreads = 1,  ///< ranks as threads on the shared in-daemon RankPool
  kProcess = 2,  ///< ranks as forked worker processes (crash-contained)
};

const char* to_string(Isolation isolation);
/// Parses "default" | "threads" | "process" (CLI values); throws on others.
Isolation isolation_from_string(const std::string& name);

/// Center-pile stabilization (sandpile/distributed.hpp). checkpoint_every
/// > 0 makes the job resumable across daemon deaths.
struct SandpileParams {
  std::uint32_t height = 64;
  std::uint32_t width = 64;
  std::uint32_t grains = 60000;      ///< dropped on the center cell
  std::uint32_t halo_depth = 1;
  std::uint32_t checkpoint_every = 4;  ///< exchange rounds; 0 = never
};

/// Word count over a deterministic corpus of `words` words drawn from a
/// seeded vocabulary — a stand-in for "the tenant's input files" that
/// every rank can regenerate identically.
struct DmrParams {
  std::uint32_t words = 20000;
  std::uint64_t seed = 1;
  std::uint32_t vocabulary = 128;
  std::uint32_t map_tasks = 16;
  std::uint32_t partitions = 8;
  std::uint32_t map_epochs = 2;
  std::uint32_t checkpoint_every = 1;  ///< epochs; 0 = never
  /// Test hook for crash containment: the mapper calls abort() once this
  /// many words have been mapped in the worker (0 = never). Under process
  /// isolation the daemon must survive it; under threads it would not —
  /// which is exactly the blast-radius difference the tests pin down.
  std::uint32_t fault_abort_at = 0;
};

/// Sweep of per-level cloud fractions 0..1 over the Montage-like workflow
/// on the EduWRENCH platform; steps are dealt round-robin to the job's
/// ranks. Result: (fraction, makespan, total gCO2) per step.
struct WfsimParams {
  std::uint32_t sweep_steps = 8;
  std::uint32_t nodes_on = 64;
  std::uint32_t pstate = 6;
};

struct JobSpec {
  JobKind kind = JobKind::kSandpile;
  std::string tenant = "default";
  std::string name;        ///< free-form label, echoed by list/status
  std::uint32_t ranks = 2; ///< rank-pool gang size this job wants
  /// Execution substrate: in-daemon pool threads or forked worker
  /// processes. kDefault defers to the daemon's configured default.
  Isolation isolation = Isolation::kDefault;
  /// Wall-clock budget for the whole run, restart attempts included
  /// (process isolation only; 0 = the daemon's default, which may be
  /// unlimited). Overrunning jobs get SIGTERM, then SIGKILL.
  std::uint32_t deadline_ms = 0;
  SandpileParams sandpile;
  DmrParams dmr;
  WfsimParams wfsim;
};

/// One job as the daemon tracks (and persists) it.
struct JobRecord {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobSpec spec;
  std::string error;              ///< FAILED reason
  std::vector<std::byte> result;  ///< DONE payload (kind-specific blob)
  std::uint32_t restarts = 0;     ///< daemon deaths survived while RUNNING
  /// Peak worker RSS across all ranks and restart attempts (wait4/RUSAGE).
  /// Process isolation only; threaded jobs report 0.
  std::uint64_t peak_rss_bytes = 0;
};

// Spec codec (DESIGN.md "Byte formats"), shared by the wire protocol and
// the on-disk queue. The readers throw peachy::Error on a value outside
// its enum.
void append_spec(std::vector<std::byte>& out, const JobSpec& spec);
JobSpec read_spec(bytes::Reader& in);
JobKind read_kind(bytes::Reader& in);
JobState read_state(bytes::Reader& in);

}  // namespace peachy::svc

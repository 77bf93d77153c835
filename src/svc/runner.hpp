// Job execution adapters: one JobSpec in, one result blob out.
//
// Every kind runs as a supervised mpp world on the daemon's shared
// RankPool (mpp::RunOptions::pool) — pooled worlds instead of per-job
// thread spawn, so N concurrent jobs compete for one fixed rank budget and
// admission control has something real to meter. The job's checkpoint
// directory is *named* (JobStore::checkpoint_dir), which is the whole
// recovery story: a daemon SIGKILLed mid-job leaves the last committed
// cut on disk, and the restarted daemon re-dispatches the same spec into
// the same directory, where Comm::restore picks the run back up.
//
// Isolation: RunnerOptions::isolation picks the substrate. kThreads runs
// ranks as pool threads inside the daemon (cheap, zero-copy, but a
// crashing job takes the daemon with it); kProcess forks real worker
// processes (mpp::run_world with RunOptions::spawn) with RLIMIT fences,
// an optional wall-clock deadline, and SIGTERM -> grace -> SIGKILL
// cancellation — worker death is a FAILED record, not a daemon outage.
//
// Cancellation is end-to-end for every kind: sandpile folds should_abort
// into the termination allreduce each exchange round, dmr polls it at
// every epoch barrier, wfsim at every sweep-step iteration. In process
// mode the launcher-side hook drives SIGTERM to the children, whose
// bodies observe mpp::spawn_abort_requested() at the same boundaries.
//
// Result blob formats (DESIGN.md "Byte formats"):
//   sandpile — sandpile::detail::encode_result (H, W, rounds, status, cells)
//   dmr      — u32 pair count | per pair: string word, u64 count
//   wfsim    — u32 row count  | per row: f64 fraction, f64 makespan_s,
//              f64 total_gco2 (doubles as u64 bit patterns)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "svc/job.hpp"

namespace peachy::mpp {
class RankPool;
}

namespace peachy::svc {

struct RunnerOptions {
  mpp::RankPool* pool = nullptr;    ///< shared pool (required for kThreads)
  std::string checkpoint_dir;       ///< named per-job dir; "" = no ckpt
  int max_restarts = 2;             ///< in-run supervision budget
  /// Polled by the job while it runs, at every exchange round / epoch
  /// barrier / sweep step. Called only in the daemon process (in process
  /// isolation it drives the SIGTERM escalation; the forked workers poll
  /// mpp::spawn_abort_requested() instead).
  std::function<bool()> should_abort;
  /// Keep the named checkpoint dir after success instead of letting mpp
  /// remove it (the daemon removes it itself once the DONE record is
  /// committed — otherwise a crash between "ckpt removed" and "record
  /// committed" would re-run the job from scratch).
  bool keep_checkpoint = true;
  /// Execution substrate. Must be resolved (not kDefault) by the caller.
  Isolation isolation = Isolation::kThreads;
  // --- process isolation only:
  std::uint64_t rlimit_as_bytes = 0;   ///< RLIMIT_AS per worker; 0 = off
  std::uint64_t rlimit_cpu_seconds = 0;  ///< RLIMIT_CPU per worker; 0 = off
  int deadline_ms = 0;       ///< whole-run wall clock; 0 = unlimited
  int term_grace_ms = 2000;  ///< SIGTERM -> SIGKILL escalation grace
  std::string flight_dir;    ///< worker crash dumps land here ("" = inherit)
};

struct RunnerOutcome {
  std::vector<std::byte> result;  ///< kind-specific blob (see header)
  bool aborted = false;           ///< should_abort stopped the run
  int restarts = 0;               ///< supervised world restarts
  /// Peak worker RSS over the whole run (max across ranks and restarts).
  /// Process isolation only — threaded jobs share the daemon's address
  /// space and report 0.
  std::uint64_t peak_rss_bytes = 0;
};

/// Executes `spec` to completion (or abort) on the pool. Throws on
/// execution failure; the daemon turns that into state FAILED.
RunnerOutcome run_job(const JobSpec& spec, const RunnerOptions& options);

/// Codecs for the dmr/wfsim blobs (the decoders serve peachyctl
/// pretty-printing and tests; sandpile blobs use sandpile::detail).
using WordCounts = std::vector<std::pair<std::string, std::uint64_t>>;
void append_dmr_result(std::vector<std::byte>& out, const WordCounts& pairs);
WordCounts decode_dmr_result(const std::vector<std::byte>& blob);

struct WfsimRow {
  double fraction = 0;
  double makespan_s = 0;
  double total_gco2 = 0;
};
void append_wfsim_result(std::vector<std::byte>& out,
                         const std::vector<WfsimRow>& rows);
std::vector<WfsimRow> decode_wfsim_result(const std::vector<std::byte>& blob);

}  // namespace peachy::svc

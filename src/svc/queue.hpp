// Persistent job store of peachyd (DESIGN.md "Job service").
//
// Every job the daemon accepts is durably recorded before the submit reply
// goes out: one sealed file per job under <dir>/jobs/ (core/bytes.hpp, the
// same frame and commit as mpp checkpoints) — full image to
// job-<id>.rec.tmp, fsync-free atomic rename over job-<id>.rec, trailing
// CRC32 over the whole record. A reader therefore sees either the previous
// committed state of a job or the next one, never a torn write; a record
// that fails its CRC (torn by a crash mid-rename on exotic filesystems, or
// bit-rotted) is skipped at load with a count, not trusted.
//
// The store is deliberately dumb: it persists and lists JobRecords and
// hands out monotonic ids. The in-memory job table, locking, and the
// QUEUED->RUNNING->... transition rules live in the daemon; the store is
// called under the daemon's lock.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "svc/job.hpp"

namespace peachy::svc {

/// The on-disk image of one job record (DESIGN.md "Byte formats").
std::vector<std::byte> encode_record(const JobRecord& rec);
/// Throws peachy::Error on a corrupt, torn or other-version image.
JobRecord decode_record(std::span<const std::byte> image);

class JobStore {
 public:
  /// Opens (creating if needed) <dir>/jobs and scans existing records so
  /// allocate_id() continues after the largest persisted id.
  explicit JobStore(std::string dir);

  /// Next unused job id; monotonic across daemon restarts.
  std::uint64_t allocate_id();

  /// Durably commits `rec` (write-tmp + atomic rename). Called on every
  /// state transition, so the on-disk record always matches the last
  /// acknowledged state.
  void put(const JobRecord& rec);

  /// Reads one committed record back; nullopt if absent or corrupt.
  std::optional<JobRecord> get(std::uint64_t id) const;

  /// All committed records, in id order. Corrupt files are skipped and
  /// counted in corrupt_skipped().
  std::vector<JobRecord> load_all();

  /// Deletes a record (terminal-state garbage collection).
  void erase(std::uint64_t id);

  /// Per-job checkpoint directory (created on demand by the runner):
  /// <dir>/ckpt/job-<id>. Named — survives the daemon — so a resumed job
  /// finds its last committed cut.
  std::string checkpoint_dir(std::uint64_t id) const;

  /// Removes a job's checkpoint directory (after DONE/CANCELLED/FAILED).
  void remove_checkpoint(std::uint64_t id);

  /// Per-job flight-recorder dump directory: <dir>/flight/job-<id>. A
  /// process-isolated job's crashing workers write their post-mortems
  /// here; the FAILED record's error string names it.
  std::string flight_dir(std::uint64_t id) const;

  /// Removes a job's flight directory (jobs that end without crashing).
  void remove_flight(std::uint64_t id);

  const std::string& dir() const { return dir_; }
  int corrupt_skipped() const { return corrupt_skipped_; }

 private:
  std::string record_path(std::uint64_t id) const;

  std::string dir_;
  std::uint64_t next_id_ = 1;
  int corrupt_skipped_ = 0;
};

}  // namespace peachy::svc

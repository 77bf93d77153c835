// peachyd wire protocol: job-service requests over the framed CRC32 wire.
//
// Transport shape: the client opens a TCP connection to the daemon, sends
// exactly one kJobRequest frame (net/wire.hpp; header.tag = the Op), reads
// exactly one kJobReply frame (header.tag = the Status), and closes. One
// request per connection keeps the daemon's serving loop single-threaded
// and stateless per client — the rendezvous/metrics-server discipline, not
// a general RPC system. Payloads are little-endian scalar/string tuples
// (DESIGN.md "Byte formats"); a malformed payload throws at decode and the
// daemon answers kError with the message instead of dying.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "svc/job.hpp"

namespace peachy::svc {

/// Request operation (kJobRequest frame tag).
enum class Op : std::int32_t {
  kSubmit = 1,    ///< payload: JobSpec
  kStatus = 2,    ///< payload: u64 id
  kResult = 3,    ///< payload: u64 id
  kCancel = 4,    ///< payload: u64 id
  kList = 5,      ///< payload: tenant filter string ("" = every tenant)
  kShutdown = 6,  ///< payload: empty; daemon drains and exits
  kStats = 7,     ///< payload: empty; queue/pool occupancy snapshot
};

/// Reply status (kJobReply frame tag).
enum class ReplyStatus : std::int32_t {
  kOk = 0,
  kRejected = 1,  ///< admission control said no; payload = reason string
  kNotFound = 2,  ///< no such job id; payload = message string
  kError = 3,     ///< malformed request or daemon-side failure; message
};

/// status() reply body.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobKind kind = JobKind::kSandpile;
  std::string tenant;
  std::string name;
  std::string error;       ///< non-empty iff FAILED
  std::uint32_t restarts = 0;
  /// Peak worker RSS (process isolation; 0 for threaded or unfinished jobs).
  std::uint64_t peak_rss_bytes = 0;
  bool has_result = false;
};

/// One row of a list() reply.
struct JobBrief {
  std::uint64_t id = 0;
  JobKind kind = JobKind::kSandpile;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string name;
};

/// stats() reply body: the daemon's live occupancy numbers.
struct ServiceStats {
  std::uint32_t queued = 0;
  std::uint32_t running = 0;
  std::uint32_t pool_ranks = 0;
  std::uint32_t busy_ranks = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
};

// Strings are u32 length + bytes (core/bytes.hpp); this name stays for
// callers outside src/ that spell it svc::.
using bytes::append_string;

// Reply body codecs (the daemon encodes, the client decodes). The readers
// throw peachy::Error on a value outside its enum.
void append_status(std::vector<std::byte>& out, const JobStatus& s);
JobStatus read_status(bytes::Reader& in);
void append_briefs(std::vector<std::byte>& out,
                   const std::vector<JobBrief>& briefs);
std::vector<JobBrief> read_briefs(bytes::Reader& in);
void append_stats(std::vector<std::byte>& out, const ServiceStats& s);
ServiceStats read_stats(bytes::Reader& in);

}  // namespace peachy::svc

#include "svc/protocol.hpp"

#include "core/error.hpp"

namespace peachy::svc {

using bytes::append_u32;
using bytes::append_u64;

void append_status(std::vector<std::byte>& out, const JobStatus& s) {
  append_u64(out, s.id);
  append_u32(out, static_cast<std::uint32_t>(s.state));
  append_u32(out, static_cast<std::uint32_t>(s.kind));
  append_string(out, s.tenant);
  append_string(out, s.name);
  append_string(out, s.error);
  append_u32(out, s.restarts);
  append_u64(out, s.peak_rss_bytes);
  append_u32(out, s.has_result ? 1 : 0);
}

JobStatus read_status(bytes::Reader& in) {
  JobStatus s;
  s.id = in.u64();
  s.state = read_state(in);
  s.kind = read_kind(in);
  s.tenant = in.string();
  s.name = in.string();
  s.error = in.string();
  s.restarts = in.u32();
  s.peak_rss_bytes = in.u64();
  s.has_result = in.u32() != 0;
  return s;
}

void append_briefs(std::vector<std::byte>& out,
                   const std::vector<JobBrief>& briefs) {
  append_u32(out, static_cast<std::uint32_t>(briefs.size()));
  for (const JobBrief& b : briefs) {
    append_u64(out, b.id);
    append_u32(out, static_cast<std::uint32_t>(b.kind));
    append_u32(out, static_cast<std::uint32_t>(b.state));
    append_string(out, b.tenant);
    append_string(out, b.name);
  }
}

std::vector<JobBrief> read_briefs(bytes::Reader& in) {
  // A brief is at least 24 bytes: id, kind, state and two string lengths.
  std::vector<JobBrief> briefs(in.count(in.u32(), 24));
  for (JobBrief& b : briefs) {
    b.id = in.u64();
    b.kind = read_kind(in);
    b.state = read_state(in);
    b.tenant = in.string();
    b.name = in.string();
  }
  return briefs;
}

void append_stats(std::vector<std::byte>& out, const ServiceStats& s) {
  for (const std::uint32_t v : {s.queued, s.running, s.pool_ranks, s.busy_ranks})
    append_u32(out, v);
  for (const std::uint64_t v : {s.submitted, s.completed, s.rejected})
    append_u64(out, v);
}

ServiceStats read_stats(bytes::Reader& in) {
  ServiceStats s;
  for (std::uint32_t* v : {&s.queued, &s.running, &s.pool_ranks, &s.busy_ranks})
    *v = in.u32();
  for (std::uint64_t* v : {&s.submitted, &s.completed, &s.rejected})
    *v = in.u64();
  return s;
}

}  // namespace peachy::svc

#include "svc/job.hpp"

#include "core/error.hpp"

namespace peachy::svc {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kSandpile: return "sandpile";
    case JobKind::kDmr: return "dmr";
    case JobKind::kWfsim: return "wfsim";
  }
  return "?";
}

JobKind job_kind_from_string(const std::string& name) {
  if (name == "sandpile") return JobKind::kSandpile;
  if (name == "dmr") return JobKind::kDmr;
  if (name == "wfsim") return JobKind::kWfsim;
  throw Error("unknown job kind '" + name +
              "' (expected sandpile, dmr or wfsim)");
}

const char* to_string(Isolation isolation) {
  switch (isolation) {
    case Isolation::kDefault: return "default";
    case Isolation::kThreads: return "threads";
    case Isolation::kProcess: return "process";
  }
  return "?";
}

Isolation isolation_from_string(const std::string& name) {
  if (name == "default") return Isolation::kDefault;
  if (name == "threads") return Isolation::kThreads;
  if (name == "process") return Isolation::kProcess;
  throw Error("unknown isolation '" + name +
              "' (expected default, threads or process)");
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

namespace {

// Calls `u32` / `u64` on each kind-specific parameter of `spec` in encoded
// order; the encoder and the decoder share it, so they cannot drift apart.
template <typename Spec, typename U32, typename U64>
void visit_params(Spec& spec, U32 u32, U64 u64) {
  switch (spec.kind) {
    case JobKind::kSandpile:
      for (auto* v : {&spec.sandpile.height, &spec.sandpile.width,
                      &spec.sandpile.grains, &spec.sandpile.halo_depth,
                      &spec.sandpile.checkpoint_every})
        u32(*v);
      break;
    case JobKind::kDmr:
      u32(spec.dmr.words);
      u64(spec.dmr.seed);
      for (auto* v : {&spec.dmr.vocabulary, &spec.dmr.map_tasks,
                      &spec.dmr.partitions, &spec.dmr.map_epochs,
                      &spec.dmr.checkpoint_every, &spec.dmr.fault_abort_at})
        u32(*v);
      break;
    case JobKind::kWfsim:
      for (auto* v : {&spec.wfsim.sweep_steps, &spec.wfsim.nodes_on,
                      &spec.wfsim.pstate})
        u32(*v);
      break;
  }
}

}  // namespace

void append_spec(std::vector<std::byte>& out, const JobSpec& spec) {
  bytes::append_u32(out, static_cast<std::uint32_t>(spec.kind));
  bytes::append_string(out, spec.tenant);
  bytes::append_string(out, spec.name);
  bytes::append_u32(out, spec.ranks);
  bytes::append_u32(out, static_cast<std::uint32_t>(spec.isolation));
  bytes::append_u32(out, spec.deadline_ms);
  visit_params(spec, [&](std::uint32_t v) { bytes::append_u32(out, v); },
               [&](std::uint64_t v) { bytes::append_u64(out, v); });
}

JobKind read_kind(bytes::Reader& in) {
  const std::uint32_t kind = in.u32();
  PEACHY_REQUIRE(kind >= 1 && kind <= 3, "unknown job kind " << kind);
  return static_cast<JobKind>(kind);
}

JobState read_state(bytes::Reader& in) {
  const std::uint32_t state = in.u32();
  PEACHY_REQUIRE(state >= 1 && state <= 5, "unknown job state " << state);
  return static_cast<JobState>(state);
}

JobSpec read_spec(bytes::Reader& in) {
  JobSpec spec;
  spec.kind = read_kind(in);
  spec.tenant = in.string();
  spec.name = in.string();
  spec.ranks = in.u32();
  PEACHY_REQUIRE(spec.ranks >= 1 && spec.ranks <= 4096,
                 "job spec wants " << spec.ranks << " ranks");
  const std::uint32_t isolation = in.u32();
  PEACHY_REQUIRE(isolation <= 2,
                 "job spec has unknown isolation " << isolation);
  spec.isolation = static_cast<Isolation>(isolation);
  spec.deadline_ms = in.u32();
  visit_params(spec, [&](std::uint32_t& v) { v = in.u32(); },
               [&](std::uint64_t& v) { v = in.u64(); });
  return spec;
}

}  // namespace peachy::svc

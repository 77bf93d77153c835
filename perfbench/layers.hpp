// The traced run: the benchmark's own spans, the job stream's per-job
// record, and the per-layer measurements taken by calling each layer's
// public functions directly (svc, mpp, net, sandpile, dmr/mapreduce,
// wfsim/sim, machine). Nothing here adds instrumentation inside src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "oracle.hpp"
#include "stats.hpp"
#include "svc/job.hpp"
#include "workload.hpp"

namespace perfbench {

/// Spans recorded from the benchmark's own code, written as Chrome trace
/// JSON. Every span of one job carries that job's id in args.job and its
/// root span's id in args.parent_span_id.
class TraceLog {
 public:
  std::int64_t new_span_id() { return next_id_.fetch_add(1); }
  void span(std::string name, std::int64_t start_ns, std::int64_t end_ns,
            int tid, std::vector<std::pair<std::string, std::int64_t>> args);
  void write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<peachy::obs::TraceEvent> events_;
  std::atomic<std::int64_t> next_id_{1};
};

/// One job of the stream, as its client saw it.
struct JobRun {
  peachy::svc::JobKind kind = peachy::svc::JobKind::kSandpile;
  peachy::svc::JobState state = peachy::svc::JobState::kQueued;
  double latency_ms = 0;  ///< submit start -> terminal status seen
  double submit_ms = 0;   ///< Client::submit round trips (refusals included)
  std::vector<double> status_ms;  ///< one Client::status round trip per poll
  std::string wrong;  ///< oracle verdict on a DONE result; "" = correct
  std::uint64_t peak_rss_bytes = 0;
  int attempts = 0;
  int refusals = 0;

  bool correct() const {
    return state == peachy::svc::JobState::kDone && wrong.empty();
  }
};

struct StreamRun {
  std::vector<JobRun> jobs;
  double wall_s = 0;
  double daemon_cpu_ms = 0;  ///< daemon + reaped workers, over the stream
  double steal_frac = 0;     ///< share of the host's CPU time stolen meanwhile

  std::vector<double> latencies(peachy::svc::JobKind kind) const;
  std::vector<double> latencies() const;
  int refusals() const;
};

struct LayerContext {
  const Workload& workload;
  const References& refs;
  const StreamRun& untraced;
  const StreamRun& traced;
  std::string scratch_dir;  ///< emptied and reused by the layer calls
  TraceLog& trace;
};

/// Runs every per-layer measurement, prints the containment-price table and
/// the attribution, and adds the per-layer metrics to `out`.
void measure_layers(const LayerContext& ctx, ResultLine& out);

}  // namespace perfbench

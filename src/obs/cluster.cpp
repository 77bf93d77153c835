#include "obs/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <random>

#include "core/bytes.hpp"

namespace peachy::obs::cluster {

namespace {

std::atomic<int> g_rank{-1};
std::atomic<std::uint64_t> g_trace_id{0};
std::atomic<std::uint64_t> g_span_counter{0};

thread_local TraceContext tl_current;

}  // namespace

void encode_context(const TraceContext& ctx, std::byte* out) {
  bytes::store_le(out, ctx.trace_id);
  bytes::store_le(out + 8, ctx.span_id);
}

TraceContext decode_context(const std::byte* in) {
  TraceContext ctx;
  ctx.trace_id = bytes::load_le<std::uint64_t>(in);
  ctx.span_id = bytes::load_le<std::uint64_t>(in + 8);
  return ctx;
}

void set_rank(int rank) { g_rank.store(rank, std::memory_order_relaxed); }
int rank() { return g_rank.load(std::memory_order_relaxed); }

void set_trace_id(std::uint64_t id) {
  g_trace_id.store(id, std::memory_order_relaxed);
}

std::uint64_t trace_id() {
  std::uint64_t id = g_trace_id.load(std::memory_order_relaxed);
  if (id != 0) return id;
  // Lazily mint a nonzero process-local id so single-process traces form a
  // tree without any launcher involvement. random_device avoids the banned
  // time-based seeds and ties between processes started the same tick.
  std::random_device rd;
  std::uint64_t fresh =
      (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
  if (fresh == 0) fresh = 1;
  // First caller wins; everyone then agrees on one id.
  if (g_trace_id.compare_exchange_strong(id, fresh, std::memory_order_relaxed))
    return fresh;
  return id;
}

std::uint64_t next_span_id() {
  // (rank+1) in the high bits keeps ids globally unique without any
  // cross-rank coordination; +1 so rank 0 (and unset rank -1 → 0) still
  // yields a nonzero namespace. 48 bits of counter will not wrap.
  const std::uint64_t hi =
      static_cast<std::uint64_t>(rank() + 1) & 0xffff;
  const std::uint64_t lo =
      g_span_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return (hi << 48) | (lo & 0xffffffffffffULL);
}

TraceContext current() { return tl_current; }
void set_current(const TraceContext& ctx) { tl_current = ctx; }
void clear_current() { tl_current = TraceContext{}; }

ScopedContext::ScopedContext(const TraceContext& ctx) : saved_(tl_current) {
  tl_current = ctx;
}

ScopedContext::~ScopedContext() { tl_current = saved_; }

// --- OffsetEstimator --------------------------------------------------------

bool OffsetEstimator::sample(std::int64_t origin_ns, std::int64_t peer_ns,
                             std::int64_t now_ns) {
  const std::int64_t rtt = now_ns - origin_ns;
  if (rtt < 0) return false;  // clock went backwards / bogus probe
  if (samples_ == 0 || rtt < min_rtt_ns_) min_rtt_ns_ = rtt;
  // A probe delayed past 1.5× the best rtt spent the extra time queued on
  // one leg; its midpoint assumption is junk, so it must not move the
  // estimate (it still tightened min_rtt above if it was the new best).
  if (samples_ > 0 && rtt > min_rtt_ns_ + min_rtt_ns_ / 2) return false;
  const double sample =
      static_cast<double>(peer_ns) -
      (static_cast<double>(origin_ns) + static_cast<double>(rtt) / 2.0);
  if (samples_ == 0)
    offset_ = sample;
  else
    offset_ += (sample - offset_) / 4.0;  // EWMA, alpha = 1/4
  ++samples_;
  return true;
}

// --- Cluster rollup ---------------------------------------------------------

std::string cluster_prometheus_text(const std::vector<RankMetrics>& per_rank) {
  // Group by family name across ranks: one # TYPE line per family, then
  // each rank's sample with a rank label. Flatten, sort by (name, rank).
  struct Entry {
    const MetricSample* sample;
    int rank;
  };
  std::vector<Entry> entries;
  for (const RankMetrics& rm : per_rank)
    for (const MetricSample& s : rm.samples) entries.push_back({&s, rm.rank});
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.sample->name != b.sample->name) return a.sample->name < b.sample->name;
    return a.rank < b.rank;
  });

  std::string out;
  const std::string* prev_name = nullptr;
  for (const Entry& e : entries) {
    const bool new_family = prev_name == nullptr || *prev_name != e.sample->name;
    prev_name = &e.sample->name;
    detail::prometheus_family(*e.sample, new_family,
                              "{rank=\"" + std::to_string(e.rank) + "\"}", out);
  }
  return out;
}

}  // namespace peachy::obs::cluster

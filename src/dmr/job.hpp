// dmr — distributed MapReduce over the mpp/net stack (DESIGN.md
// "Distributed MapReduce").
//
// The in-process engine (mapreduce/job.hpp) fans a job out over threads;
// this engine fans the *same job* out over ranks — threads, loopback
// sockets, or forked worker processes, whichever substrate
// mpp::RunOptions selects — the shape a real Hadoop deployment takes.
// Execution per rank:
//
//   1. map      — global splits are dealt round-robin to ranks; each rank
//                 maps its splits (map_workers threads) and runs the
//                 combiner per task, exactly like mr::Job.
//   2. shuffle  — intermediate records are hash-partitioned; partition p
//                 lives on rank p mod R. Each epoch ends with an
//                 all-to-all exchange of framed record blocks over the
//                 transport (one length-prefixed message per peer).
//   3. sort     — every rank feeds received records into per-partition
//                 external sorters: bounded in-memory buffers that spill
//                 sorted run files to disk, k-way merged at reduce — so a
//                 shuffle larger than memory still completes.
//   4. reduce   — each rank reduces its partitions (reduce_workers
//                 threads) streaming groups off the merge; rank 0 gathers
//                 per-partition outputs in partition order.
//
// Determinism: records are ordered by (partition, key, map task, emit
// seq); keys are compared with K2's operator< after decode, and the
// (task, seq) tie-break reproduces mr::Job's (map task, emit order) value
// ordering — so for the same JobConfig-shaped knobs (map_tasks,
// partitions, combiner) the output is byte-identical to the in-process
// engine, for any rank/worker count and any transport. Tests assert it.
//
// Fault tolerance: the unit of recovery is the *world*, not the task
// (mr::Job's per-task retries stay an in-process feature). Map progress
// is cut into epochs; after each exchanged epoch a rank can checkpoint
// its received-so-far record set through Comm::checkpoint. When a rank
// dies mid-shuffle (PeerDied, severed link, killed process), the PR-4
// supervisor respawns the world and the body restores the last committed
// epoch — the shuffle restarts from there instead of from scratch.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "dmr/codec.hpp"
#include "dmr/sorter.hpp"
#include "dmr/spill.hpp"
#include "mapreduce/job.hpp"
#include "mpp/mpp.hpp"
#include "obs/obs.hpp"

namespace peachy::dmr {

/// Defaults chosen independent of the rank count on purpose: a job's
/// output is a function of (input, map_tasks, partitions), so defaults
/// tied to ranks would silently change the result between world sizes.
inline constexpr int kDefaultMapTasks = 16;
inline constexpr int kDefaultPartitions = 8;

/// Distributed execution knobs.
struct Options {
  int ranks = 2;             ///< world size (>= 1)
  mpp::RunOptions run;       ///< transport | spawn | faults | resilience
  int map_workers = 1;       ///< map threads per rank
  int reduce_workers = 1;    ///< reduce threads per rank
  int map_tasks = 0;         ///< global input splits; 0 = kDefaultMapTasks
  int partitions = 0;        ///< reduce partitions; 0 = kDefaultPartitions
  /// Map progress is cut into this many shuffle epochs; an epoch is the
  /// checkpoint/restart granularity (1 = single monolithic shuffle).
  int map_epochs = 1;
  /// Checkpoint after every N committed epochs (0 = never). Requires a
  /// checkpoint directory: run supervised (run.resilience.max_restarts >
  /// 0) or name run.resilience.checkpoint_dir.
  int checkpoint_every = 0;
  /// Per-rank cap on the external sorters' in-memory buffers, split
  /// evenly across the rank's partitions. 0 = unbounded (never spills).
  std::size_t spill_buffer_bytes = 0;
  /// Base directory for spill runs ("" = a private mkdtemp per rank,
  /// removed when the job ends).
  std::string spill_dir;
  /// Cooperative cancellation probe, polled by rank 0 at every epoch
  /// barrier (right after the all-to-all exchange) and broadcast to the
  /// world, so all ranks abandon the job at the same cut. An aborted job
  /// skips the remaining epochs and the reduce, returns an empty output
  /// with Result::aborted set, and leaves committed checkpoints in place.
  /// Must be identical on every rank (it is part of the SPMD body).
  std::function<bool()> should_abort;
  /// Optional partition -> owning-rank map, e.g. from
  /// machine::PlacementAdvisor fed with the job's partition-traffic
  /// profile. Empty = the static default (partition p on rank p % R).
  /// When set it must have exactly `partitions` entries, each in
  /// [0, ranks). The mapping only moves where partitions are reduced;
  /// output stays byte-identical (records are assembled in partition
  /// order regardless of ownership). Must be identical on every rank.
  std::vector<int> partition_owner;
};

/// Aggregate counters over all ranks (the distributed JobCounters).
struct Counters {
  std::size_t map_inputs = 0;
  std::size_t map_outputs = 0;
  std::size_t combine_outputs = 0;
  std::size_t shuffle_records = 0;  ///< records routed into partitions
  std::size_t shuffle_bytes = 0;    ///< framed bytes sent rank-to-rank
  std::size_t local_bytes = 0;      ///< framed bytes that stayed local
  std::size_t groups = 0;
  std::size_t reduce_outputs = 0;
  SpillStats spill;                 ///< external-sort spill accounting
  /// Records per partition (index = partition id) — the skew profile.
  std::vector<std::size_t> partition_records;
  int epochs = 0;                   ///< map epochs executed (any attempt)
};

/// What a distributed job run produced.
template <typename K3, typename V3>
struct Result {
  std::vector<std::pair<K3, V3>> output;
  Counters counters;
  mpp::CommStats comm;
  mpp::NetStats net;
  int restarts = 0;    ///< supervised world restarts (0 = clean run)
  bool aborted = false;  ///< Options::should_abort fired mid-run
  /// Largest per-worker RSS peak (bytes); spawned transports only.
  std::uint64_t peak_rss_bytes = 0;
};

namespace detail {

/// Runs fn(0..n-1) on up to `workers` plain threads (not the TaskArena:
/// dmr bodies execute inside forked worker processes, where the shared
/// arena's threads would not exist). Rethrows the first failure.
inline void run_indexed(std::size_t n, int workers,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t w =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(1, workers)));
  if (w <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  threads.reserve(w);
  for (std::size_t t = 0; t < w; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Per-rank counter block shipped to rank 0 with the outputs. Fixed-width
/// so it frames trivially.
struct RankCounters {
  std::uint64_t map_outputs = 0;
  std::uint64_t combine_outputs = 0;
  std::uint64_t shuffle_records = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t groups = 0;
  std::uint64_t reduce_outputs = 0;
  std::uint64_t spills = 0;
  std::uint64_t spilled_records = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t epochs = 0;  ///< last in the encoded block
};

/// Rank blob layout: [11 x u64 counters][u32 owned_count]
/// ([u32 partition][u64 records_in][u64 out_count] framed outputs)*.
template <typename K3, typename V3>
void encode_rank_blob(
    const RankCounters& rc, const std::vector<int>& owned,
    const std::vector<std::size_t>& part_records,
    const std::vector<std::vector<std::pair<K3, V3>>>& part_out,
    std::vector<std::byte>& out) {
  for (const std::uint64_t v :
       {rc.map_outputs, rc.combine_outputs, rc.shuffle_records,
        rc.shuffle_bytes, rc.local_bytes, rc.groups, rc.reduce_outputs,
        rc.spills, rc.spilled_records, rc.spilled_bytes, rc.epochs})
    bytes::append_u64(out, v);
  bytes::append_u32(out, static_cast<std::uint32_t>(owned.size()));
  RawRecord rec;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    bytes::append_u32(out, static_cast<std::uint32_t>(owned[i]));
    bytes::append_u64(out, part_records[i]);
    bytes::append_u64(out, part_out[i].size());
    for (std::size_t k = 0; k < part_out[i].size(); ++k) {
      rec.partition = static_cast<std::uint32_t>(owned[i]);
      rec.task = 0;
      rec.seq = static_cast<std::uint32_t>(k);
      rec.key.clear();
      rec.value.clear();
      Codec<K3>::encode(part_out[i][k].first, rec.key);
      Codec<V3>::encode(part_out[i][k].second, rec.value);
      append_record(rec, out);
    }
  }
}

/// Merges every rank's blob into the final result blob rank 0 stashes:
/// [11 x u64 summed counters][u32 partitions][u64 records_in per
/// partition][u64 total outputs][framed outputs in partition order].
inline std::vector<std::byte> assemble_result(
    const std::vector<std::vector<std::byte>>& rank_blobs, int partitions) {
  std::array<std::uint64_t, 11> total{};  // RankCounters, encoded order
  std::vector<std::uint64_t> per_partition(
      static_cast<std::size_t>(partitions), 0);
  std::vector<std::vector<std::byte>> outputs(
      static_cast<std::size_t>(partitions));
  std::uint64_t total_outputs = 0;
  for (const auto& blob : rank_blobs) {
    bytes::Reader in(blob);
    for (std::size_t i = 0; i < total.size(); ++i) {
      const std::uint64_t v = in.u64();
      // Epochs (last) agree on every rank; everything else sums.
      total[i] = i + 1 == total.size() ? std::max(total[i], v) : total[i] + v;
    }
    const std::uint32_t owned_count = in.u32();
    RawRecord rec;
    for (std::uint32_t i = 0; i < owned_count; ++i) {
      const std::uint32_t p = in.u32();
      PEACHY_REQUIRE(p < per_partition.size(),
                     "result blob names partition " << p << " of "
                                                    << partitions);
      per_partition[p] = in.u64();
      const std::uint64_t n = in.count(in.u64(), 20);  // 20-byte frames
      total_outputs += n;
      for (std::uint64_t k = 0; k < n; ++k) {
        PEACHY_REQUIRE(read_record(in, rec),
                       "result blob truncated mid-partition");
        append_record(rec, outputs[p]);
      }
    }
  }
  std::vector<std::byte> out;
  for (const std::uint64_t v : total) bytes::append_u64(out, v);
  bytes::append_u32(out, static_cast<std::uint32_t>(partitions));
  for (const std::uint64_t n : per_partition) bytes::append_u64(out, n);
  bytes::append_u64(out, total_outputs);
  for (const auto& part : outputs)
    out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// Decodes the blob rank 0 stashed into the caller-facing Result.
template <typename K3, typename V3>
Result<K3, V3> decode_result(const std::vector<std::byte>& blob,
                             int partitions) {
  PEACHY_REQUIRE(!blob.empty(),
                 "dmr job produced no result blob (rank 0 died?)");
  Result<K3, V3> result;
  bytes::Reader in(blob);
  result.aborted = in.u32() != 0;
  Counters& c = result.counters;
  std::size_t epochs = 0;
  for (std::size_t* f :
       {&c.map_outputs, &c.combine_outputs, &c.shuffle_records,
        &c.shuffle_bytes, &c.local_bytes, &c.groups, &c.reduce_outputs,
        &c.spill.spills, &c.spill.spilled_records, &c.spill.spilled_bytes,
        &epochs})
    *f = static_cast<std::size_t>(in.u64());
  c.epochs = static_cast<int>(epochs);
  const std::uint32_t p_count = in.u32();
  PEACHY_REQUIRE(p_count == static_cast<std::uint32_t>(partitions),
                 "result blob has " << p_count << " partitions, expected "
                                    << partitions);
  c.partition_records.resize(p_count);
  for (std::size_t& n : c.partition_records)
    n = static_cast<std::size_t>(in.u64());
  // Each output record is a frame of at least 20 bytes.
  const std::uint64_t n = in.count(in.u64(), 20);
  result.output.reserve(n);
  RawRecord rec;
  for (std::uint64_t k = 0; k < n; ++k) {
    PEACHY_REQUIRE(read_record(in, rec), "result blob truncated mid-output");
    result.output.emplace_back(
        Codec<K3>::decode(rec.key.data(), rec.key.size()),
        Codec<V3>::decode(rec.value.data(), rec.value.size()));
  }
  return result;
}

}  // namespace detail

/// A typed distributed MapReduce job. Same phase signatures as mr::Job;
/// K2/V2 (and K3/V3) additionally need a dmr::Codec so they can cross
/// rank boundaries and spill to disk.
template <typename K1, typename V1, typename K2, typename V2, typename K3,
          typename V3>
class Job {
 public:
  using Mapper = std::function<void(const K1&, const V1&, mr::Emitter<K2, V2>&)>;
  using Combiner = std::function<void(const K2&, const std::vector<V2>&,
                                      mr::Emitter<K2, V2>&)>;
  using Reducer = std::function<void(const K2&, const std::vector<V2>&,
                                     mr::Emitter<K3, V3>&)>;
  using Partitioner = std::function<int(const K2&, int)>;
  using ValueComparator = std::function<bool(const V2&, const V2&)>;

  Job& mapper(Mapper m) { mapper_ = std::move(m); return *this; }
  Job& combiner(Combiner c) { combiner_ = std::move(c); return *this; }
  Job& reducer(Reducer r) { reducer_ = std::move(r); return *this; }
  Job& partitioner(Partitioner p) { partitioner_ = std::move(p); return *this; }
  Job& sort_values(ValueComparator cmp) {
    value_cmp_ = std::move(cmp);
    return *this;
  }
  Job& options(Options opt) { options_ = std::move(opt); return *this; }

  /// Runs the job distributed over options().ranks ranks. Every rank must
  /// see the same `inputs` (the replicated-input model: each worker reads
  /// the same job files) — with spawned workers the vector is inherited
  /// through fork or rebuilt by the re-exec'd main on its way back here.
  Result<K3, V3> run(const std::vector<std::pair<K1, V1>>& inputs) {
    PEACHY_REQUIRE(mapper_ != nullptr, "dmr job has no mapper");
    PEACHY_REQUIRE(reducer_ != nullptr, "dmr job has no reducer");
    PEACHY_REQUIRE(options_.ranks >= 1,
                   "dmr job needs >= 1 rank, got " << options_.ranks);
    PEACHY_REQUIRE(options_.map_workers >= 1 && options_.reduce_workers >= 1,
                   "worker counts must be >= 1");
    const int splits =
        options_.map_tasks > 0 ? options_.map_tasks : kDefaultMapTasks;
    const int partitions =
        options_.partitions > 0 ? options_.partitions : kDefaultPartitions;
    const int epochs = std::max(1, options_.map_epochs);
    PEACHY_REQUIRE(options_.checkpoint_every == 0 ||
                       options_.run.resilience.max_restarts > 0 ||
                       !options_.run.resilience.checkpoint_dir.empty(),
                   "checkpoint_every needs a checkpoint directory: run "
                   "supervised or set resilience.checkpoint_dir");
    if (!options_.partition_owner.empty()) {
      PEACHY_REQUIRE(
          static_cast<int>(options_.partition_owner.size()) == partitions,
          "partition_owner has " << options_.partition_owner.size()
                                 << " entries for " << partitions
                                 << " partitions");
      for (const int owner : options_.partition_owner)
        PEACHY_REQUIRE(owner >= 0 && owner < options_.ranks,
                       "partition_owner entry " << owner
                                                << " outside [0, ranks)");
    }
    Partitioner partition =
        partitioner_ ? partitioner_ : Partitioner(mr::HashPartitioner<K2>{});

    obs::Span job_span("dmr.job", "dmr");
    job_span.arg("ranks", options_.ranks);
    job_span.arg("splits", splits);
    job_span.arg("partitions", partitions);
    job_span.arg("epochs", epochs);

    const mpp::RunOutcome outcome = mpp::run_world(
        options_.ranks, options_.run, [&](mpp::Comm& comm) {
          rank_body(comm, inputs, splits, partitions, epochs, partition);
        });

    Result<K3, V3> result =
        detail::decode_result<K3, V3>(outcome.rank0_result, partitions);
    result.counters.map_inputs = inputs.size();
    result.comm = outcome.comm;
    result.net = outcome.net;
    result.restarts = outcome.restarts;
    result.peak_rss_bytes = outcome.peak_rss_bytes;
    job_span.arg("restarts", result.restarts);
    if (obs::enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("dmr.jobs").add(1);
      reg.counter("dmr.shuffle_records").add(result.counters.shuffle_records);
      reg.counter("dmr.shuffle_bytes").add(result.counters.shuffle_bytes);
      reg.counter("dmr.spills").add(result.counters.spill.spills);
      reg.counter("dmr.spilled_bytes").add(result.counters.spill.spilled_bytes);
      obs::Histogram& skew =
          obs::Registry::global().histogram("dmr.partition_records");
      for (const std::size_t n : result.counters.partition_records)
        skew.observe(static_cast<std::int64_t>(n));
    }
    return result;
  }

 private:
  // Reserved application tags (positive, high to stay clear of user tags
  // in mixed workloads; FIFO per (src, tag) keeps epochs ordered anyway).
  static constexpr int tag_shuffle(int epoch) { return 9100 + epoch; }
  static constexpr int tag_result() { return 9050; }

  /// Owning rank of partition `p` in a world of `R` ranks.
  int owner_of(int p, int R) const {
    if (options_.partition_owner.empty()) return p % R;
    return options_.partition_owner[static_cast<std::size_t>(p)];
  }

  /// The SPMD body every rank runs.
  void rank_body(mpp::Comm& comm,
                 const std::vector<std::pair<K1, V1>>& inputs, int splits,
                 int partitions, int epochs, const Partitioner& partition) {
    const int R = comm.size();
    const int me = comm.rank();

    // Partition p lives on rank owner_of(p) — p mod R unless the job was
    // given an explicit placement; this rank's partitions ascending.
    std::vector<int> owned;
    for (int p = 0; p < partitions; ++p)
      if (owner_of(p, R) == me) owned.push_back(p);

    // One external sorter per owned partition; the per-rank spill budget
    // is split evenly across them.
    const std::size_t per_sorter_cap =
        owned.empty() ? 0
                      : options_.spill_buffer_bytes / owned.size();
    std::vector<std::unique_ptr<SpillDir>> spill_dirs;
    std::vector<std::unique_ptr<ExternalSorter<K2, V2>>> sorters;
    std::vector<int> owner_index(static_cast<std::size_t>(partitions), -1);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      spill_dirs.push_back(std::make_unique<SpillDir>(
          options_.spill_dir.empty()
              ? ""
              : options_.spill_dir + "/rank" + std::to_string(me) + "-p" +
                    std::to_string(owned[i])));
      sorters.push_back(std::make_unique<ExternalSorter<K2, V2>>(
          *spill_dirs.back(), per_sorter_cap));
      owner_index[static_cast<std::size_t>(owned[i])] = static_cast<int>(i);
    }
    const auto ingest = [&](const RawRecord& rec) {
      PEACHY_REQUIRE(rec.partition < static_cast<std::uint32_t>(partitions) &&
                         owner_index[rec.partition] >= 0,
                     "rank " << me << ": received record for partition "
                             << rec.partition << " it does not own");
      sorters[static_cast<std::size_t>(owner_index[rec.partition])]->add_raw(
          rec);
    };

    detail::RankCounters rc;

    // Resume from the last committed shuffle epoch, if any: the blob is
    // [u32 next_epoch][framed records received so far].
    int start_epoch = 0;
    if (comm.checkpointing()) {
      if (auto blob = comm.restore()) {
        bytes::Reader in(*blob);
        start_epoch = static_cast<int>(in.u32());
        RawRecord rec;
        std::size_t restored = 0;
        while (read_record(in, rec)) {
          ingest(rec);
          ++restored;
        }
        if (obs::enabled())
          obs::Tracer::global().instant(
              "dmr.restore", "dmr",
              {{"rank", me},
               {"epoch", start_epoch},
               {"records", static_cast<std::int64_t>(restored)}});
      }
    }

    // --- Map + shuffle, one epoch at a time.
    bool aborted = false;
    for (int e = start_epoch; e < epochs; ++e) {
      obs::Span epoch_span("dmr.map_epoch", "dmr");
      epoch_span.arg("rank", me);
      epoch_span.arg("epoch", e);

      // Splits of this epoch dealt round-robin to ranks.
      std::vector<int> my_tasks;
      const int ep_lo = splits * e / epochs;
      const int ep_hi = splits * (e + 1) / epochs;
      for (int s = ep_lo; s < ep_hi; ++s)
        if (s % R == me) my_tasks.push_back(s);

      // Map + combine + partition each task; outputs are framed straight
      // into per-destination blocks, kept per task so the concatenation
      // below is deterministic in task order.
      std::vector<std::vector<std::vector<std::byte>>> task_blocks(
          my_tasks.size(),
          std::vector<std::vector<std::byte>>(static_cast<std::size_t>(R)));
      std::vector<std::size_t> task_map_out(my_tasks.size(), 0);
      std::vector<std::size_t> task_comb_out(my_tasks.size(), 0);
      detail::run_indexed(
          my_tasks.size(), options_.map_workers, [&](std::size_t i) {
            const int s = my_tasks[i];
            const std::size_t lo =
                inputs.size() * static_cast<std::size_t>(s) /
                static_cast<std::size_t>(splits);
            const std::size_t hi =
                inputs.size() * (static_cast<std::size_t>(s) + 1) /
                static_cast<std::size_t>(splits);
            mr::Emitter<K2, V2> emitter;
            for (std::size_t r = lo; r < hi; ++r)
              mapper_(inputs[r].first, inputs[r].second, emitter);
            task_map_out[i] = emitter.pairs().size();
            std::vector<std::pair<K2, V2>> intermediate =
                combiner_ ? mr::detail::combine_pairs(
                                std::move(emitter.pairs()), combiner_)
                          : std::move(emitter.pairs());
            task_comb_out[i] = intermediate.size();
            RawRecord rec;
            for (std::size_t k = 0; k < intermediate.size(); ++k) {
              const int p = partition(intermediate[k].first, partitions);
              PEACHY_REQUIRE(p >= 0 && p < partitions,
                             "partitioner returned " << p << " of "
                                                     << partitions);
              rec.partition = static_cast<std::uint32_t>(p);
              rec.task = static_cast<std::uint32_t>(s);
              rec.seq = static_cast<std::uint32_t>(k);
              rec.key.clear();
              rec.value.clear();
              Codec<K2>::encode(intermediate[k].first, rec.key);
              Codec<V2>::encode(intermediate[k].second, rec.value);
              append_record(rec, task_blocks[i][static_cast<std::size_t>(
                                     owner_of(p, R))]);
            }
          });
      for (std::size_t i = 0; i < my_tasks.size(); ++i) {
        rc.map_outputs += task_map_out[i];
        rc.combine_outputs += task_comb_out[i];
      }

      // Concatenate per-destination blocks in task order.
      std::vector<std::vector<std::byte>> dest(static_cast<std::size_t>(R));
      for (std::size_t i = 0; i < my_tasks.size(); ++i)
        for (int d = 0; d < R; ++d) {
          auto& block = task_blocks[i][static_cast<std::size_t>(d)];
          dest[static_cast<std::size_t>(d)].insert(
              dest[static_cast<std::size_t>(d)].end(), block.begin(),
              block.end());
          block.clear();
          block.shrink_to_fit();
        }

      // All-to-all exchange: everyone sends first (sends never block),
      // then receives in rank order. One length-prefixed message per peer
      // per epoch, empty blocks included — the recv doubles as the epoch
      // barrier.
      obs::Span exchange_span("dmr.exchange", "dmr");
      exchange_span.arg("rank", me);
      exchange_span.arg("epoch", e);
      for (int d = 0; d < R; ++d) {
        if (d == me) continue;
        const auto& block = dest[static_cast<std::size_t>(d)];
        const std::uint64_t n = block.size();
        comm.send(d, tag_shuffle(e), &n, 1);
        // The concatenated block goes down as one byte-view send.
        if (n) comm.send(d, tag_shuffle(e), std::span<const std::byte>(block));
        rc.shuffle_bytes += n;
      }
      {
        const auto& mine = dest[static_cast<std::size_t>(me)];
        bytes::Reader in(mine);
        RawRecord rec;
        while (read_record(in, rec)) ingest(rec);
        rc.local_bytes += mine.size();
      }
      for (int src = 0; src < R; ++src) {
        if (src == me) continue;
        std::uint64_t n = 0;
        comm.recv(src, tag_shuffle(e), &n, 1);
        std::vector<std::byte> block(n);
        if (n) comm.recv(src, tag_shuffle(e), block.data(), block.size());
        bytes::Reader in(block);
        RawRecord rec;
        while (read_record(in, rec)) ingest(rec);
      }
      rc.epochs = static_cast<std::uint64_t>(e) + 1;
      exchange_span.arg("bytes_out",
                        static_cast<std::int64_t>(rc.shuffle_bytes));
      exchange_span.close();

      // Cancellation cut: the exchange recv above is the epoch barrier, so
      // every rank is at the same point. Rank 0 polls the hook once and the
      // or-reduce broadcasts the verdict — all ranks abandon together (same
      // shape as the sandpile's abort poll). Committed checkpoints stay.
      if (options_.should_abort) {
        const bool mine = me == 0 && options_.should_abort();
        if (comm.allreduce_or(mine)) {
          aborted = true;
          if (obs::enabled())
            obs::Tracer::global().instant("dmr.abort", "dmr",
                                          {{"rank", me}, {"epoch", e}});
          break;
        }
      }

      // Commit the epoch: every rank's received-so-far record set becomes
      // the restart point. The exchange recv above is the all-ranks-agree
      // cut the checkpoint collective needs.
      if (comm.checkpointing() && options_.checkpoint_every > 0 &&
          (e + 1) % options_.checkpoint_every == 0 && e + 1 < epochs) {
        std::vector<std::byte> blob;
        bytes::append_u32(blob, static_cast<std::uint32_t>(e) + 1);
        for (const auto& sorter : sorters)
          sorter->snapshot(
              [&blob](const RawRecord& rec) { append_record(rec, blob); });
        comm.checkpoint(blob.data(), blob.size());
      }
    }

    // --- Reduce: each owned partition streams groups off its merge. An
    // aborted job skips it — the collect below still runs so rank 0 can
    // assemble the (empty, aborted-flagged) result every rank agrees on.
    std::vector<std::vector<std::pair<K3, V3>>> part_out(owned.size());
    std::vector<std::size_t> part_groups(owned.size(), 0);
    std::vector<std::size_t> part_records(owned.size(), 0);
    if (!aborted)
      detail::run_indexed(
        owned.size(), options_.reduce_workers, [&](std::size_t i) {
          obs::Span reduce_span("dmr.reduce_partition", "dmr");
          reduce_span.arg("rank", me);
          reduce_span.arg("partition", owned[i]);
          ExternalSorter<K2, V2>& sorter = *sorters[i];
          part_records[i] = sorter.total_records();
          mr::Emitter<K3, V3> emitter;
          bool open = false;
          K2 current_key{};
          std::vector<V2> values;
          const auto flush = [&] {
            if (!open) return;
            if (value_cmp_)
              std::stable_sort(values.begin(), values.end(), value_cmp_);
            reducer_(current_key, values, emitter);
            ++part_groups[i];
            values.clear();
          };
          sorter.stream([&](std::uint32_t, const K2& key, V2& value,
                            std::uint32_t) {
            if (!open || current_key < key || key < current_key) {
              flush();
              current_key = key;
              open = true;
            }
            values.push_back(std::move(value));
          });
          flush();
          part_out[i] = std::move(emitter.pairs());
          reduce_span.arg("groups",
                          static_cast<std::int64_t>(part_groups[i]));
        });
    for (std::size_t i = 0; i < owned.size(); ++i) {
      rc.shuffle_records += part_records[i];
      rc.groups += part_groups[i];
      rc.reduce_outputs += part_out[i].size();
    }
    for (const auto& sorter : sorters) {
      rc.spills += sorter->stats().spills;
      rc.spilled_records += sorter->stats().spilled_records;
      rc.spilled_bytes += sorter->stats().spilled_bytes;
    }

    // --- Collect at rank 0: each rank ships one blob of [counters]
    // [per-partition outputs]; rank 0 assembles the result in partition
    // order and stashes it for the launcher.
    std::vector<std::byte> mine;
    detail::encode_rank_blob(rc, owned, part_records, part_out, mine);
    if (me != 0) {
      const std::uint64_t n = mine.size();
      comm.send(0, tag_result(), &n, 1);
      if (n) comm.send(0, tag_result(), std::span<const std::byte>(mine));
      return;
    }
    std::vector<std::vector<std::byte>> rank_blobs(
        static_cast<std::size_t>(R));
    rank_blobs[0] = std::move(mine);
    for (int src = 1; src < R; ++src) {
      std::uint64_t n = 0;
      comm.recv(src, tag_result(), &n, 1);
      rank_blobs[static_cast<std::size_t>(src)].resize(n);
      if (n)
        comm.recv(src, tag_result(),
                  rank_blobs[static_cast<std::size_t>(src)].data(), n);
    }
    std::vector<std::byte> result_blob;
    bytes::append_u32(result_blob, aborted ? 1 : 0);
    const std::vector<std::byte> assembled =
        detail::assemble_result(rank_blobs, partitions);
    result_blob.insert(result_blob.end(), assembled.begin(), assembled.end());
    comm.set_result(result_blob.data(), result_blob.size());
  }

  Mapper mapper_;
  Combiner combiner_;
  Reducer reducer_;
  Partitioner partitioner_;
  ValueComparator value_cmp_;
  Options options_;
};

}  // namespace peachy::dmr

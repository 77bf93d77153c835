// mpp — a message-passing runtime with MPI-shaped semantics, over a
// pluggable transport.
//
// The paper's fourth sandpile assignment distributes the stencil over a
// cluster with MPI and the Ghost Cell Pattern [Kjolstad & Snir 2010]. mpp
// substitutes for MPI with the same semantics (blocking point-to-point with
// source+tag matching, FIFO per (source, tag) channel; collectives built on
// top of point-to-point so they behave identically everywhere).
//
// One launcher, mpp::run_world(ranks, RunOptions, body), runs one SPMD body
// over one of three substrates:
//
//  * inproc — ranks are threads, messages are memcpys into mailboxes.
//    Fast, cost-free communication; the default.
//  * tcp    — ranks are threads but every message crosses a real loopback
//    socket through peachy_net's framed, CRC-checked wire protocol
//    (net/tcp.hpp). Communication has genuine latency and a fault plan can
//    sever links.
//  * spawned — RunOptions::spawn forks real worker *processes* wired up by
//    a rendezvous server; the ghost-cell trade-off runs against separate
//    address spaces, like the MPI original.
//
// Thread ranks and worker processes live the same life (build the Comm,
// run the body, say goodbye, report counters and rank 0's result), and a
// failed world names the same root cause on every substrate: the first
// rank whose failure is not a `peer rank … died` cascade.
//
// Message and byte counters make communication volume measurable, which is
// what the ghost-cell trade-off experiment (bench_ghost_cells) reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "mpp/telemetry.hpp"
#include "net/process.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

namespace peachy::mpp {

class RankPool;

/// Which substrate carries the messages.
enum class TransportKind { kInproc, kTcp };

const char* to_string(TransportKind kind);
/// Parses "inproc" or "tcp" (CLI flag values); throws on anything else.
TransportKind transport_from_string(const std::string& name);

/// Aggregate communication counters for one rank.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Frame-level counters from the tcp substrate (zero under inproc).
struct NetStats {
  /// Always 0: the transport has no retransmits or acks of its own (TCP
  /// does that). Kept until the benchmark stops reading them.
  std::uint64_t retransmits = 0;
  std::uint64_t window_stalls = 0;  ///< sends that parked on a full outbox
  std::uint64_t acks_sent = 0;      ///< always 0, see `retransmits`
  /// Frames still queued when shutdown()'s bounded drain expired (the
  /// affected peers are marked dead).
  std::uint64_t frames_abandoned = 0;
  std::uint64_t fault_severed = 0;  ///< links the fault plan severed
};

/// Recovery policy for a supervised world (mpp::run_world). With
/// max_restarts > 0 a failed attempt (PeerDied, a dead worker process, a
/// worker error) is not propagated: every rank is respawned and the body
/// re-runs, restoring from the last committed checkpoint via
/// Comm::restore(). A restart clears the tcp fault plan (transient-fault
/// model: the injector proved the failure path; replaying the same
/// deterministic faults would exhaust the budget without finishing). The
/// restart budget bounds how long a persistent fault can spin before the
/// original error finally surfaces.
struct Resilience {
  int max_restarts = 0;        ///< 0 = fail fast (the pre-recovery behavior)
  /// Where checkpoints live. Empty + supervised: a private temp directory
  /// is created and removed with the run. Non-empty: created if missing,
  /// kept afterwards — which is what lets a *new invocation* resume.
  std::string checkpoint_dir;
  /// Remove the *named* checkpoint_dir after a successful run. Off by
  /// default (a kept directory is what cross-invocation resume reads), but
  /// long-lived callers — peachyd retiring thousands of jobs — flip it so
  /// completed work does not accumulate stale checkpoint directories.
  /// Unnamed (mkdtemp) directories are always removed, as before.
  bool remove_checkpoint_on_success = false;
};

/// Supervisor-side guard rails for a spawned world: kernel resource fences
/// on every child, a wall-clock deadline spanning restart attempts, and a
/// cooperative cancel hook — all enforced by a launcher-side watchdog with
/// SIGTERM -> grace -> SIGKILL escalation. Workers observe the SIGTERM via
/// mpp::spawn_abort_requested() and get `grace` to exit on their own
/// (checkpoint-preserving shutdown) before the axe falls.
struct SpawnControl {
  net::ChildLimits limits;  ///< RLIMIT_AS / RLIMIT_CPU applied per child
  int deadline_ms = 0;      ///< whole-run wall clock budget; 0 = unlimited
  int term_grace_ms = 2000; ///< SIGTERM -> SIGKILL escalation window
  /// Polled by the launcher-side watchdog (never inside a worker); true
  /// triggers the SIGTERM escalation. Must be safe to call from a thread.
  std::function<bool()> should_abort;
  /// Flight-recorder dump directory for the workers (their crash handler
  /// writes post-mortems here). Empty = inherit $PEACHY_FLIGHT_DIR.
  std::string flight_dir;
};

/// Why a spawned world attempt was torn down, for callers that must triage
/// failure causes without string matching.
enum class SpawnFailure {
  kNonzero,    ///< a worker exited with a nonzero code before reporting
  kCrash,      ///< a worker was killed by a signal (segfault, abort, OOM)
  kTimeout,    ///< the SpawnControl wall-clock deadline fired
  kCancelled,  ///< the SpawnControl cancel hook fired and workers had to be
               ///< killed (a cooperative cancel returns normally instead)
};

/// The error a spawned world throws when it fails; the kind triages why.
/// kTimeout and kCancelled are terminal: the supervisor does not burn
/// restart budget re-running work that was deliberately stopped.
class SpawnError : public Error {
 public:
  SpawnError(SpawnFailure kind, const std::string& message)
      : Error(message), kind_(kind) {}
  SpawnFailure kind() const { return kind_; }

 private:
  SpawnFailure kind_;
};

/// True inside a spawned worker process (set before the body runs). Job
/// bodies use it to pick the right cancel probe: the launcher-side hook is
/// meaningless after fork.
bool in_spawned_worker();

/// True once the supervisor's SIGTERM reached this worker process. The
/// cooperative half of cancellation: bodies poll it at their epoch/step
/// boundary and shut down checkpoint-preservingly.
bool spawn_abort_requested();

/// How to run a world (mpp::run_world).
struct RunOptions {
  TransportKind transport = TransportKind::kInproc;
  /// Fork real worker processes instead of threads (always over tcp,
  /// whatever `transport` says). With an empty `worker_argv` the workers
  /// are plain fork() children running the body directly. With a non-empty
  /// one each worker is fork+exec'd from that command line, runs main()
  /// until it reaches this same run_world call site, and is routed into
  /// the worker path by PEACHY_MPP_* environment variables (so pass e.g.
  /// {"/proc/self/exe", "--gtest_filter=<this test>"} to re-enter a test
  /// body).
  bool spawn = false;
  std::vector<std::string> worker_argv;
  /// Socket timeouts and fault plan for the tcp substrate.
  net::TcpOptions tcp;
  /// Checkpoint/restart policy; inert by default.
  Resilience resilience;
  /// Cluster telemetry policy (mpp/telemetry.hpp); inert by default. When
  /// enabled, obs recording is switched on in every rank, trace contexts
  /// propagate across sends, workers ship snapshots to rank 0, and rank 0
  /// can serve /metrics and write a merged clock-corrected trace.
  Telemetry telemetry;
  /// Execute threaded (non-spawned) worlds on this shared pool's threads
  /// instead of spawning one thread per rank (mpp/pool.hpp). Not owned.
  /// peachyd points every job here so concurrent jobs share one rank
  /// budget. Ignored by spawned worlds.
  RankPool* pool = nullptr;
  /// Guard rails for spawned worlds (limits, deadline, cancel hook).
  /// Ignored by threaded worlds.
  SpawnControl spawn_control;
};

/// What a world run produced beyond side effects: aggregate stats and the
/// bytes rank 0 stashed with Comm::set_result — the only way results leave
/// a spawned world, since worker processes share no memory with the
/// launcher.
struct RunOutcome {
  CommStats comm;
  NetStats net;
  std::vector<std::byte> rank0_result;
  /// How many times the supervisor restarted the world (0 = clean run).
  int restarts = 0;
  /// Largest per-worker resident-set peak (bytes) over all ranks and
  /// restart attempts, from wait4/RUSAGE accounting. Only spawned worlds
  /// report it; thread-backed worlds leave 0 (ranks share one address
  /// space, so a per-rank peak is not meaningful).
  std::uint64_t peak_rss_bytes = 0;
};

/// A rank's endpoint into a world: an MPI communicator handle bound to one
/// rank. Move-only; lives on the rank's stack inside mpp::run_world.
class Comm {
 public:
  explicit Comm(std::unique_ptr<net::Transport> transport)
      : transport_(std::move(transport)) {}
  Comm(Comm&&) = default;

  int rank() const { return transport_->rank(); }
  int size() const { return transport_->size(); }

  /// Blocking typed send of `count` elements of trivially copyable T.
  template <typename T>
  void send(int dest, int tag, const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, data, count * sizeof(T));
  }

  /// Byte-view send, for callers that hold a contiguous byte range (dmr
  /// shuffle blocks, sandpile halo rows): the same path and blocking
  /// semantics as the typed send.
  void send(int dest, int tag, std::span<const std::byte> payload) {
    send_bytes(dest, tag, payload.data(), payload.size());
  }

  /// Blocking typed receive; the message size must be exactly `count`
  /// elements (mismatch throws, like an MPI truncation error).
  template <typename T>
  void recv(int src, int tag, T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(src, tag, data, count * sizeof(T));
  }

  /// Exchange with a partner: sends then receives (deadlock-free because
  /// sends never block on the receiver's matching recv).
  template <typename T>
  void sendrecv(int partner, int tag, const T* send_buf, T* recv_buf,
                std::size_t count) {
    send(partner, tag, send_buf, count);
    recv(partner, tag, recv_buf, count);
  }

  /// Blocks until every rank in the world has entered the barrier.
  void barrier();

  /// All-reduce with a commutative/associative op over one value.
  std::int64_t allreduce_sum(std::int64_t value);
  std::int64_t allreduce_max(std::int64_t value);
  /// Logical-or all-reduce (the "did any rank change a cell?" query that
  /// terminates the distributed sandpile).
  bool allreduce_or(bool value);

  /// Gathers each rank's vector at root, concatenated in rank order.
  /// Non-root ranks receive an empty vector.
  template <typename T>
  std::vector<T> gather(int root, const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rank_() != root) {
      const std::uint64_t n = mine.size();
      send(root, detail_tag_gather(), &n, 1);
      if (n) send(root, detail_tag_gather(), mine.data(), mine.size());
      return {};
    }
    std::vector<T> all;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_()) {
        all.insert(all.end(), mine.begin(), mine.end());
        continue;
      }
      std::uint64_t n = 0;
      recv(r, detail_tag_gather(), &n, 1);
      std::vector<T> part(n);
      if (n) recv(r, detail_tag_gather(), part.data(), n);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  /// Broadcast from root: root's `count` elements overwrite every rank's
  /// buffer. Collective (all ranks must call).
  template <typename T>
  void broadcast(int root, T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rank_() == root) {
      for (int r = 0; r < size(); ++r)
        if (r != rank_()) send(r, detail_tag_bcast(), data, count);
    } else {
      recv(root, detail_tag_bcast(), data, count);
    }
  }

  /// Scatter from root: rank r receives chunk r of root's `all` vector,
  /// which must hold size() * chunk elements at the root (ignored
  /// elsewhere). Collective.
  template <typename T>
  std::vector<T> scatter(int root, const std::vector<T>& all,
                         std::size_t chunk) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> mine(chunk);
    if (rank_() == root) {
      PEACHY_REQUIRE(all.size() == chunk * static_cast<std::size_t>(size()),
                     "scatter needs " << chunk * static_cast<std::size_t>(size())
                                      << " elements, got " << all.size());
      for (int r = 0; r < size(); ++r) {
        if (r == rank_()) {
          std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(chunk) * r,
                      chunk, mine.begin());
        } else {
          send(r, detail_tag_scatter(),
               all.data() + chunk * static_cast<std::size_t>(r), chunk);
        }
      }
    } else {
      if (chunk) recv(root, detail_tag_scatter(), mine.data(), chunk);
    }
    return mine;
  }

  /// Collective checkpoint cut: every rank contributes its local state
  /// blob and returns the new epoch (checkpoint_epoch() + 1). Call at a
  /// point where all ranks agree on progress (e.g. right after a
  /// collective) so the cut is consistent. Throws unless checkpointing()
  /// is enabled.
  ///
  /// The cut sends nothing and waits for no peer: each rank commits its
  /// own blob as `rank-<r>.ckpt` (mpp/checkpoint.hpp) before it returns,
  /// keeping the previous epoch as its spare. A failed commit throws
  /// peachy::Error here. Only a rank killed mid-write is left holding its
  /// previous epoch, which restore() then agrees on. A cut at epoch 1 (no
  /// earlier cut or restored epoch) first removes the rank's files, so
  /// none from an earlier run survives.
  int checkpoint(const void* data, std::size_t bytes);

  /// Collective restore: every rank reads its committed file and spare,
  /// rank 0 gathers the (at most two) epochs each rank holds and
  /// broadcasts the newest one every rank holds, and each rank gets its
  /// own blob of that epoch back, or nullopt when no epoch is common to
  /// all ranks. A rank holding a newer epoch drops it, so a later crash
  /// cannot pair it with a replayed one. A corrupt committed file on any
  /// rank throws peachy::Error on every rank. Sets checkpoint_epoch().
  std::optional<std::vector<std::byte>> restore();

  /// Epoch of the last cut this rank took part in, or restored; 0 when
  /// neither has happened.
  int checkpoint_epoch() const { return epoch_; }

  /// True when a checkpoint directory is configured (Resilience policy or
  /// set_checkpoint_dir) — bodies gate their checkpoint/restore calls on it.
  bool checkpointing() const { return !ckpt_dir_.empty(); }
  void set_checkpoint_dir(std::string dir) { ckpt_dir_ = std::move(dir); }

  /// Stashes bytes that run_world() hands back to the launcher as
  /// RunOutcome::rank0_result. Only rank 0's stash is
  /// collected — it is how a spawned world returns its answer across the
  /// process boundary.
  void set_result(const void* data, std::size_t bytes);
  std::vector<std::byte> take_result() { return std::move(result_); }

  /// Communication counters accumulated by this rank so far.
  const CommStats& stats() const { return stats_; }

  /// The substrate underneath (tests and the runtime peek at tcp stats).
  net::Transport& transport() { return *transport_; }

 private:
  int rank_() const { return transport_->rank(); }
  // Reserved negative tags for collectives (user code uses its own tags;
  // a (source, tag) channel keyed on these never collides with it).
  static constexpr int detail_tag_gather() { return -4242; }
  static constexpr int detail_tag_bcast() { return -4243; }
  static constexpr int detail_tag_scatter() { return -4244; }
  static constexpr int detail_tag_barrier() { return -4245; }
  static constexpr int detail_tag_reduce() { return -4246; }

  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);
  void recv_bytes(int src, int tag, void* data, std::size_t bytes);
  std::int64_t allreduce(std::int64_t value,
                         std::int64_t (*op)(std::int64_t, std::int64_t));

  std::unique_ptr<net::Transport> transport_;
  CommStats stats_;
  std::vector<std::byte> result_;
  std::string ckpt_dir_;
  int epoch_ = 0;
};

/// The SPMD launcher: runs `body(comm)` on `ranks` ranks over the
/// substrate `options` chooses, and returns the aggregate counters and rank
/// 0's result. The same body runs bit-identically over mailboxes, loopback
/// sockets or forked worker processes. A failed world throws the root
/// cause: the first failing rank whose failure is not a `peer rank … died`
/// cascade. A threaded world rethrows that rank's own exception object; a
/// spawned one throws SpawnError naming the rank, and a worker that dies
/// silently is detected, reaped and reported, never waited on forever.
/// With resilience.max_restarts > 0 failed attempts are restarted instead
/// and resume from the last committed checkpoint (see Resilience).
RunOutcome run_world(int ranks, const RunOptions& options,
                     const std::function<void(Comm&)>& body);

}  // namespace peachy::mpp

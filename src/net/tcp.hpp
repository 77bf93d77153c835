// TcpTransport: MPI-shaped point-to-point messaging over real sockets.
//
// Topology: a full mesh of loopback TCP connections, wired up through the
// rendezvous (net/rendezvous.hpp) — rank i dials every j < i and accepts
// every j > i, with a versioned HELLO/HELLO_ACK handshake on each link.
//
// Protocol: sliding window with cumulative acks. send() assigns the frame a
// per-connection sequence number, copies the payload once into a retransmit
// slot, and returns as soon as the window admits it — up to
// TcpOptions::window_frames frames ride unacked per peer, so a burst of
// sends costs one RTT, not one RTT each. Frames are *staged*, not written
// inline: the reader thread (or the next recv()/window-full wait) flushes
// every staged frame for a peer as one scatter-gather writev batch — small
// frames coalesce into a single syscall, and neither headers nor payloads
// are ever copied into an intermediate contiguous buffer.
//
// Every post-handshake socket write is non-blocking (MSG_DONTWAIT): bytes
// the kernel will not take right now are queued in a per-peer outbox that
// the reader thread drains on POLLOUT. No thread ever parks inside a
// socket write, so the reader always returns to draining inbound frames —
// which is what makes two ranks blasting bursts larger than the kernel
// socket buffers at each other drain instead of deadlock (each side's
// reader keeps emptying its receive buffer, freeing the other side's
// writes; backpressure surfaces as outbox growth bounded by the window,
// never as a blocked thread).
//
// Acks are cumulative (FrameHeader::ack covers every seq below it) and
// delayed: the receiver drains a burst of readable frames, then answers
// with a single ACK — or none at all when an outgoing DATA frame piggybacks
// the ack first (kFlagCarriesAck). Loss recovery is one retransmit timer
// per peer, armed for the oldest unacked frame: on expiry every unacked
// frame is rewritten in one batch (go-back-N; the receiver's reassembly
// buffer absorbs the overlap), with exponential backoff and the attempt
// counter reset whenever the cumulative ack makes progress. The receive
// path delivers in order, parks out-of-order frames in a per-peer
// reassembly map, and drops already-delivered duplicates — injected drops,
// duplicates, and delays (net/fault.hpp) are absorbed by the protocol
// instead of corrupting the stream. window_frames = 1 degenerates to
// stop-and-wait: one frame in flight, one ack per frame, same byte stream.
//
// A background reader thread demultiplexes every peer socket into
// per-(source, tag) FIFO channels — the same matching semantics as the
// in-process mailboxes — applies acks to blocked senders, flushes staged
// frames (senders poke it through a pipe), and runs the retransmit timers,
// which is what keeps "everyone sends, then everyone receives" exchange
// patterns deadlock-free.
//
// Failure semantics: EOF after a GOODBYE frame is a graceful shutdown; EOF
// without one, a reset, a CRC mismatch, or an exhausted retransmit budget
// marks the peer dead and every blocked or future send()/recv() against it
// throws PeerDied naming both ends. send() returning only promises the
// frame is in the window — shutdown() confirms delivery by draining every
// unacked frame before saying GOODBYE, and when that drain exceeds
// goodbye_timeout_ms it does not fail silently: the peers still holding
// unacked frames are marked dead (subsequent sends throw PeerDied) and the
// loss is counted in Stats::frames_abandoned / net.frames_abandoned.
// Nothing hangs: every wait carries a configurable timeout. With
// TcpOptions::heartbeat_ms > 0 the reader thread additionally PINGs every
// idle link and suspects a peer that has been silent past the suspicion
// timeout — so a wedged (not closed) peer is detected even when no
// application data is in flight. PINGs ride outside the data sequence
// space, are never acked, and bypass the fault injector, so enabling them
// does not perturb seeded-fault determinism.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/rendezvous.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/cluster.hpp"

namespace peachy::net {

/// Timeouts, window geometry, retry policy, and fault plan for one TCP world.
struct TcpOptions {
  std::string host = "127.0.0.1";
  int connect_timeout_ms = 10000;   ///< rendezvous + mesh dial budget
  int recv_timeout_ms = 30000;      ///< application-level recv wait
  int ack_timeout_ms = 100;         ///< initial retransmit timer
  int max_retries = 8;              ///< retransmit passes (backoff doubles)
  int goodbye_timeout_ms = 2000;    ///< graceful-shutdown drain
  int heartbeat_ms = 0;             ///< >0: PING every idle link this often
  int suspicion_timeout_ms = 0;     ///< silence budget; 0 = 4 * heartbeat_ms
  /// >0: run Cristian-style clock probes against every peer this often
  /// (an initial burst goes out faster so short runs still converge).
  /// Probes ride the PING/PONG path: outside the data sequence space,
  /// never acked, invisible to the fault injector. Feeds clock_estimates()
  /// and the net.clock_offset_us gauges for offset-corrected trace merges.
  int clock_sync_ms = 0;
  int window_frames = 32;           ///< unacked frames per peer; 1 = stop-and-wait
  std::size_t coalesce_bytes = 64 * 1024;  ///< staged bytes that force an
                                           ///< inline flush from the sender
  /// First sequence number on every connection (both directions, all
  /// links). A test hook: start near UINT64_MAX to prove the window
  /// bookkeeping survives a seq wrap (see wire.hpp seq_before()).
  std::uint64_t first_seq = 0;
  FaultPlan fault;                  ///< inactive unless seed != 0
};

class TcpTransport final : public Transport {
 public:
  /// Connects the full mesh; blocks until every link is handshaken.
  TcpTransport(int rank, int world, int rendezvous_port,
               const TcpOptions& options);
  ~TcpTransport() override;

  int rank() const override { return rank_; }
  int size() const override { return world_; }
  using Transport::recv;  // the no-info overload forwards to the full one
  void send(int dest, int tag, const void* data, std::size_t bytes) override;
  std::vector<std::byte> recv(int src, int tag, MsgInfo* info) override;
  bool try_recv(int src, int tag, std::vector<std::byte>& out,
                MsgInfo* info = nullptr) override;
  void shutdown() override;

  /// Frame-level counters, aggregated over all of this rank's connections.
  struct Stats {
    std::uint64_t retransmits = 0;
    std::uint64_t window_stalls = 0;  ///< sends that blocked on a full window
    std::uint64_t acks_sent = 0;      ///< cumulative acks, pure + piggybacked
    std::uint64_t heartbeats_sent = 0;
    /// Frames still unacked when shutdown()'s bounded drain expired — each
    /// one is a send() whose delivery was never confirmed.
    std::uint64_t frames_abandoned = 0;
    FaultInjector::Counters fault;
  };
  Stats stats() const;

  /// The still-open rendezvous connection (spawned workers report over it).
  const Socket& rendezvous_socket() const { return session_.sock; }

  /// One peer's Cristian clock-offset estimate (peer_clock − local_clock).
  struct ClockEstimate {
    bool valid = false;
    std::int64_t offset_ns = 0;
    std::int64_t min_rtt_ns = 0;
    std::uint64_t samples = 0;
  };
  /// Estimates for every peer with at least one accepted probe. Only
  /// populated when TcpOptions::clock_sync_ms > 0 — rank 0's trace merger
  /// uses these to rebase worker timestamps onto its own clock.
  std::map<int, ClockEstimate> clock_estimates() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One received message plus its out-of-band metadata, queued on a
  /// (src, tag) channel until recv()/try_recv() claims it.
  struct Delivery {
    std::vector<std::byte> payload;
    MsgInfo info;
  };

  /// One window slot: the single copy of an in-flight payload, kept until
  /// the cumulative ack passes it. Header bytes are encoded at write time
  /// (each write stamps the current piggyback ack) under the peer's
  /// write_mutex; a shared_ptr keeps the buffers alive when an ack pops the
  /// slot while a writev batch still references it.
  struct TxFrame {
    FrameHeader h;                   // len + crc fixed at stage time
    std::vector<std::byte> payload;
    std::byte hdr[kHeaderBytes];
    // Trace-context trailer (kFlagCarriesCtx): rides after the payload on
    // every write of this frame, retransmissions and injected duplicates
    // included, so dedup at the receiver keeps exactly one copy of the
    // context along with the one delivered payload.
    std::byte ctx[kCtxTrailerBytes];
    bool has_ctx = false;
    Clock::time_point staged_at{};
    Clock::time_point hold_until{};  // injected delay: not on the wire before
    bool write_twice = false;        // injected duplicate (first write only)
  };
  using TxFramePtr = std::shared_ptr<TxFrame>;

  struct Peer {
    Socket sock;
    std::unique_ptr<FaultInjector> fault;
    std::mutex write_mutex;  // serializes every socket write (flush, acks,
                             // retransmits, control frames); never held
                             // across a blocking syscall — writes are
                             // MSG_DONTWAIT with the overflow queued below
    std::mutex send_mutex;   // serializes send(): seq assignment + injector
                             // judgment happen in seq order
    std::uint64_t send_seq = 0;  // guarded by send_mutex

    // Backpressure overflow — guarded by write_mutex. Bytes (in wire order)
    // that the kernel's send buffer refused; the reader drains them on
    // POLLOUT. Bounded by the window: at most window_frames framed payloads
    // plus control frames per peer.
    std::vector<std::byte> outbox;
    std::size_t outbox_off = 0;    // consumed prefix of outbox
    bool outbox_pending = false;   // mirror for the poll set — guarded by mu_

    // Sender window state — guarded by the transport-wide mu_:
    std::deque<TxFramePtr> unacked;  // oldest first; size caps the window
    std::deque<TxFramePtr> staged;   // admitted, not yet on the wire
    std::deque<TxFramePtr> held;     // injector-delayed, not yet due
    std::size_t staged_bytes = 0;
    int attempts = 0;                // retransmit passes since last progress
    Clock::time_point retransmit_at{};

    // Receiver state — guarded by mu_:
    std::uint64_t recv_next = 0;      // next in-order inbound seq
    std::uint64_t last_ack_sent = 0;  // cumulative ack the peer has seen
    bool ack_pending = false;
    std::map<std::uint64_t, std::pair<int, Delivery>>
        reassembly;  // out-of-order frames: seq -> (tag, delivery)

    // Clock-offset estimate for this peer — guarded by mu_.
    obs::cluster::OffsetEstimator clock_est;

    bool goodbye = false;
    bool dead = false;
    std::string why;
    // Reader-thread-only (never locked): inbound reassembly. Frames arrive
    // in arbitrary fragments from non-blocking reads; bytes accumulate here
    // until a whole header+payload is present. Mirrors the outbox on the
    // read side — the reader never parks inside a recv mid-frame, so it
    // always comes back around to drain its own outbox.
    std::vector<std::byte> rx_buf;
    // Reader-thread-only (never locked): heartbeat liveness bookkeeping.
    Clock::time_point last_rx{};
    Clock::time_point last_ping_tx{};
    bool suspected = false;          // first suspicion probes, second kills
    Clock::time_point suspect_since{};
    // Reader-thread-only (never locked): clock-probe cadence.
    Clock::time_point last_probe_tx{};
    int probes_sent = 0;
  };

  Peer& peer(int r) { return *peers_[static_cast<std::size_t>(r)]; }
  /// Requires peer(r).write_mutex held. Hands the iovecs to the kernel
  /// without blocking and copies whatever it refused into the peer's
  /// outbox (order preserved); throws Error only on a broken connection.
  /// `iov` is clobbered.
  void write_or_queue(int r, struct iovec* iov, std::size_t iovcnt);
  /// POLLOUT service: writes queued outbox bytes until drained or the
  /// kernel buffer fills again; marks the peer dead on a write error.
  void drain_outbox(int r);
  void write_frame(int r, const std::vector<std::byte>& frame);
  /// Writes every staged frame for `r` as one writev batch (piggybacking
  /// the current cumulative ack). Safe from any thread; no-op when nothing
  /// is staged.
  void flush_peer(int r);
  void flush_all();
  /// Sends a pure cumulative ACK when one is still owed (no DATA carried it).
  void send_pure_ack(int r);
  /// Expired retransmit timer: rewrites every due unacked frame, or kills
  /// the peer once the attempt budget is gone.
  void retransmit_pass(int r, Clock::time_point now);
  /// Moves injector-delayed frames whose hold time has passed into staging.
  void release_held(int r, Clock::time_point now);
  /// Applies a cumulative ack from `src` (pure or piggybacked).
  void apply_ack(int src, std::uint64_t ack);
  /// Requires peer(r).write_mutex held. Stamps `ack` into every header and
  /// writes the whole batch as one scatter-gather call; marks the peer dead
  /// and returns false on a write error.
  bool write_batch(int r, const std::vector<TxFramePtr>& batch,
                   std::uint64_t ack);
  void wake_reader();
  /// Milliseconds until the nearest retransmit/hold deadline, capped at
  /// `cap`.
  int next_deadline_ms(int cap);
  void reader_loop();
  void heartbeat_pass();
  /// Sends due clock probes (TcpOptions::clock_sync_ms cadence, with a
  /// fast initial burst per peer so short runs still converge).
  void clock_pass();
  void handle_frame(int src, const FrameHeader& h,
                    std::vector<std::byte> payload,
                    const std::byte* ctx_trailer);
  /// `graceful` distinguishes an orderly GOODBYE-then-EOF (no flight dump)
  /// from a real death (flight-recorder post-mortem is written).
  void mark_dead(int src, const std::string& why, bool graceful = false);
  [[noreturn]] void throw_peer_dead(int peer_rank);

  int rank_;
  int world_;
  TcpOptions opt_;
  Socket listen_;
  RendezvousSession session_;
  std::vector<std::unique_ptr<Peer>> peers_;  // [rank_] stays null

  // Channel queues + peer window/liveness state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Delivery>> channels_;
  std::uint64_t retransmits_ = 0;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t frames_abandoned_ = 0;

  std::thread reader_;
  int wake_pipe_[2] = {-1, -1};
  bool stopping_ = false;  // guarded by mu_
  bool shut_down_ = false;
};

}  // namespace peachy::net

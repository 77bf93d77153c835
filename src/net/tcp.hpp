// TcpTransport: MPI-shaped point-to-point messaging over real sockets.
//
// Topology: a full mesh of loopback TCP connections, wired up through the
// rendezvous (net/rendezvous.hpp) — rank i dials every j < i and accepts
// every j > i, with a versioned HELLO/HELLO_ACK handshake on each link.
//
// Protocol: none beyond TCP's own. The kernel's stream already delivers in
// order or not at all, and this transport never reconnects, so there are
// no acks, no retransmits and no reordering here. send() stamps the frame
// with a per-link sequence number and the sender's steady-clock time, then
// hands header, payload and trace-context trailer to the kernel with one
// non-blocking writev from the caller's thread. Nothing is copied into an
// intermediate buffer on that path.
//
// Whatever the kernel will not take right now is copied into a per-peer
// outbox that the reader thread drains on POLLOUT. No thread ever parks
// inside a socket write, so the reader always returns to draining inbound
// frames: two ranks blasting bursts larger than the kernel socket buffers
// at each other drain instead of deadlocking. The outbox is bounded by
// kOutboxBoundBytes; a send() that finds it full parks (counted in
// Stats::window_stalls) until the reader drains it, and after
// recv_timeout_ms of a peer that reads nothing the peer is marked dead.
//
// A background reader thread demultiplexes every peer socket into
// per-(source, tag) FIFO channels — the same matching semantics as the
// in-process mailboxes — which is what keeps "everyone sends, then everyone
// receives" exchange patterns deadlock-free. It checks each DATA frame's
// CRC and sequence number and records its one-way delivery time
// (net.delivery_ns: receipt minus the sender's stamp).
//
// Failure semantics: EOF after a GOODBYE frame is a graceful shutdown; EOF
// without one, a reset, a CRC mismatch, or a sequence gap or repeat marks
// the peer dead, and every blocked or future send()/recv() against it
// throws PeerDied naming both ends. shutdown() queues a GOODBYE behind
// every queued frame, then waits until each peer's outbox is empty and its
// GOODBYE (or EOF) has been read; only then may the socket close. When that
// drain exceeds goodbye_timeout_ms it does not fail silently: peers with
// frames still queued are marked dead and the frames are counted in
// Stats::frames_abandoned / net.frames_abandoned. Nothing hangs: every wait
// carries a configurable timeout. With TcpOptions::heartbeat_ms > 0 the
// reader thread additionally PINGs every idle link and suspects a peer that
// has been silent past the suspicion timeout — so a wedged (not closed)
// peer is detected even when no application data is in flight. PINGs ride
// outside the data sequence space and never count toward a fault plan's
// sever point, so enabling them does not move a seeded fault.
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

/// Bytes a peer's outbox may hold before send() parks: the memory one
/// stalled peer can pin on the sending side.
inline constexpr std::size_t kOutboxBoundBytes = 16u << 20;

/// Timeouts and fault plan for one TCP world.
struct TcpOptions {
  std::string host = "127.0.0.1";
  int connect_timeout_ms = 10000;   ///< rendezvous + mesh dial budget
  /// recv wait, and the longest a send parks on a full outbox
  int recv_timeout_ms = 30000;
  int goodbye_timeout_ms = 2000;    ///< graceful-shutdown drain
  int heartbeat_ms = 0;             ///< >0: PING every idle link this often
  int suspicion_timeout_ms = 0;     ///< silence budget; 0 = 4 * heartbeat_ms
  /// >0: run Cristian-style clock probes against every peer this often
  /// (an initial burst goes out faster so short runs still converge).
  /// Probes ride the PING/PONG path, outside the data sequence space.
  /// Feeds clock_estimates() and the net.clock_offset_us gauges for
  /// offset-corrected trace merges.
  int clock_sync_ms = 0;
  FaultPlan fault;                  ///< inactive unless sever_after >= 0
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
    std::uint64_t window_stalls = 0;  ///< sends that parked on a full outbox
    std::uint64_t heartbeats_sent = 0;
    /// Frames still queued in an outbox when shutdown()'s bounded drain
    /// expired — each one a send() the peer never received.
    std::uint64_t frames_abandoned = 0;
    std::uint64_t fault_severed = 0;  ///< links the fault plan severed
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

  struct Peer {
    Socket sock;
    std::mutex write_mutex;  // serializes every socket write and guards the
                             // three fields below; never held across a
                             // blocking syscall
    std::uint64_t send_seq = 0;
    // Frames (or one frame's unsent tail) the kernel's send buffer refused,
    // in wire order; the reader drains them on POLLOUT. outbox_off bytes
    // of the front frame are already written.
    std::deque<std::vector<std::byte>> outbox;
    std::size_t outbox_off = 0;

    // Guarded by the transport-wide mu_:
    std::size_t outbox_bytes = 0;  // mirror of the outbox's size in bytes
    obs::cluster::OffsetEstimator clock_est;
    bool goodbye = false;
    bool dead = false;
    std::string why;

    // Reader-thread-only (never locked): inbound frames arrive in arbitrary
    // fragments from non-blocking reads; bytes accumulate here until a
    // whole header+payload is present, so the reader never parks inside a
    // recv mid-frame and always comes back around to drain the outbox.
    std::vector<std::byte> rx_buf;
    std::uint64_t recv_next = 0;  // the seq the next DATA frame must carry
    // Reader-thread-only: heartbeat liveness bookkeeping.
    Clock::time_point last_rx{};
    Clock::time_point last_ping_tx{};
    bool suspected = false;          // first suspicion probes, second kills
    Clock::time_point suspect_since{};
    // Reader-thread-only: clock-probe cadence.
    Clock::time_point last_probe_tx{};
    int probes_sent = 0;
  };

  Peer& peer(int r) { return *peers_[static_cast<std::size_t>(r)]; }
  /// Requires peer(r).write_mutex held. Hands one frame's iovecs to the
  /// kernel without blocking and queues whatever it refused in the peer's
  /// outbox (order preserved); throws Error only on a broken connection.
  /// `iov` is clobbered.
  void write_or_queue(int r, struct iovec* iov, int iovcnt);
  /// POLLOUT service: writes queued outbox frames until drained or the
  /// kernel buffer fills again; marks the peer dead on a write error.
  void drain_outbox(int r);
  /// Writes one control frame; marks the peer dead and returns false on a
  /// write error.
  bool write_frame(int r, const std::vector<std::byte>& frame);
  /// Parks while peer `r`'s outbox is full; throws PeerDied when the peer
  /// is (or is declared) dead.
  void wait_for_outbox_room(int r);
  void wake_reader();
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

  // Channel queues + peer outbox/liveness state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Delivery>> channels_;
  Stats stats_;

  std::thread reader_;
  int wake_pipe_[2] = {-1, -1};
  bool stopping_ = false;  // guarded by mu_
  bool shut_down_ = false;
};

}  // namespace peachy::net

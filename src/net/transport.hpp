// The transport seam between the mpp runtime and its substrate.
//
// mpp::Comm speaks MPI-shaped point-to-point semantics (blocking send/recv
// with source+tag matching, FIFO per (source, tag) channel); a Transport
// provides exactly that primitive and nothing more — collectives are built
// on top of it in mpp, so they behave identically over every backend.
// Implementations: InprocTransport (mailboxes in one process, zero real
// communication cost) and TcpTransport (length-prefixed CRC-checked frames
// over real sockets; see net/tcp.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace peachy::net {

/// Out-of-band metadata delivered with one received message. Today that is
/// the propagated trace context (obs::cluster): the sender's (trace_id,
/// span_id) pair when the message was sent under an active context.
struct MsgInfo {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool has_ctx = false;
};

class Transport {
 public:
  virtual ~Transport();

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Blocking send of `bytes` to `dest`. Returns once the payload is safely
  /// buffered — copied into a mailbox (inproc) or handed to the kernel or
  /// the peer's outbox (tcp, which then guarantees delivery or a PeerDied
  /// on a later call). Throws PeerDied when the destination is gone for
  /// good.
  virtual void send(int dest, int tag, const void* data,
                    std::size_t bytes) = 0;

  /// Blocking receive of the next message on the (src, tag) channel.
  /// Throws PeerDied when `src` died or shut down with the channel empty,
  /// or Error on timeout (tcp only; inproc waits for as long as `src` is
  /// alive, like a deadlocked MPI run would). When `info`
  /// is non-null it is filled with the message's trace context (has_ctx
  /// false when the sender attached none).
  virtual std::vector<std::byte> recv(int src, int tag, MsgInfo* info) = 0;

  /// Convenience overload for callers that ignore message metadata.
  std::vector<std::byte> recv(int src, int tag) {
    return recv(src, tag, nullptr);
  }

  /// Non-blocking receive: pops the next (src, tag) message into `out` and
  /// returns true, or returns false when none is queued right now. Never
  /// blocks and never throws on peer death (a dead peer simply stops
  /// producing messages) — the polling primitive the rank-0 telemetry hub
  /// drains worker snapshots with.
  virtual bool try_recv(int src, int tag, std::vector<std::byte>& out,
                        MsgInfo* info = nullptr) = 0;

  /// Graceful close: flush goodbyes, so a peer's pending or later recv
  /// from this rank fails with PeerDied instead of waiting forever.
  /// Idempotent; never throws.
  virtual void shutdown() {}
};

}  // namespace peachy::net

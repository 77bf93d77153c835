// RAII wrapper over POSIX TCP sockets, plus the transport error taxonomy.
//
// Everything is blocking-with-timeout: connect uses a non-blocking connect
// followed by poll(), and recv_all polls before every read so a stalled
// peer surfaces as a peachy::Error instead of a hung process. Writes use
// MSG_NOSIGNAL so a dead peer raises an exception, not SIGPIPE.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/error.hpp"

namespace peachy::net {

/// Thrown when a peer's connection is lost for good: reset, closed without
/// a GOODBYE frame, or unresponsive past the retry budget. Carries both
/// endpoints so an 8-rank run names the dead link.
class PeerDied : public Error {
 public:
  PeerDied(int self, int peer, const std::string& why)
      : Error("rank " + std::to_string(self) + ": peer rank " +
              std::to_string(peer) + " died: " + why),
        self_(self),
        peer_(peer) {}

  int self() const { return self_; }
  int peer() const { return peer_; }

 private:
  int self_;
  int peer_;
};

/// Move-only owner of one socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Bound + listening socket on `host` (port 0 picks an ephemeral port —
  /// read it back with local_port()).
  static Socket listen_on(const std::string& host, int port, int backlog);

  /// Connects with a deadline; refused connections are retried until the
  /// deadline (the peer's listener may not be up yet during rendezvous).
  static Socket connect_to(const std::string& host, int port, int timeout_ms);

  /// Accepts one connection; throws on timeout.
  Socket accept(int timeout_ms) const;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  int local_port() const;

  /// Writes all `n` bytes; throws Error when the connection breaks or the
  /// kernel refuses bytes past the deadline (a peer that stopped reading).
  void send_all(const void* data, std::size_t n,
                int timeout_ms = 30000) const;

  /// One non-blocking scatter-gather write attempt (sendmsg with
  /// MSG_DONTWAIT over up to IOV_MAX iovecs): returns the byte count the
  /// kernel accepted, or -1 when its buffer is full right now. Throws
  /// Error when the connection breaks. Never blocks — the transport's
  /// write path, which must not park a thread mid-write.
  ssize_t sendv_some(const struct iovec* iov, int iovcnt) const;

  /// Reads exactly `n` bytes. Returns false on clean EOF *before the first
  /// byte*; EOF mid-buffer (a torn frame) and timeouts throw.
  bool recv_all(void* data, std::size_t n, int timeout_ms) const;

  /// One non-blocking read attempt (MSG_DONTWAIT): returns the bytes read,
  /// 0 on EOF, or -1 when nothing is buffered right now. Throws Error on a
  /// broken connection. The transport reader's drain path — it must never
  /// park mid-frame while its own outbox needs service.
  ssize_t recv_some(void* data, std::size_t n) const;

  /// Half-close: no more writes from this side; reads still drain.
  void shutdown_write() const;
  /// Hard-close both directions (the fault injector's "severed link") —
  /// the peer sees EOF/reset immediately, the fd stays owned until close().
  void shutdown_both() const;
  void close();

 private:
  int fd_ = -1;
};

}  // namespace peachy::net

#include "net/tcp.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/timer.hpp"
#include "net/wire.hpp"
#include "obs/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace peachy::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Bytes drained from one socket before the other sockets get a turn.
constexpr std::size_t kMaxBurstBytes = 4u << 20;

obs::Counter& obs_frames_sent() {
  static obs::Counter& c = obs::Registry::global().counter("net.frames_sent");
  return c;
}
obs::Counter& obs_frames_received() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.frames_received");
  return c;
}
obs::Counter& obs_window_stalls() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.window_stalls");
  return c;
}
obs::Histogram& obs_frame_bytes() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("net.frame_bytes");
  return h;
}
obs::Histogram& obs_delivery_ns() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("net.delivery_ns");
  return h;
}
obs::Counter& obs_frames_abandoned() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.frames_abandoned");
  return c;
}
obs::Counter& obs_heartbeats_sent() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.heartbeats_sent");
  return c;
}
obs::Counter& obs_heartbeats_missed() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.heartbeats_missed");
  return c;
}

}  // namespace

TcpTransport::TcpTransport(int rank, int world, int rendezvous_port,
                           const TcpOptions& options)
    : rank_(rank), world_(world), opt_(options) {
  PEACHY_REQUIRE(world >= 1, "tcp world needs >= 1 rank, got " << world);
  PEACHY_REQUIRE(rank >= 0 && rank < world,
                 "bad rank " << rank << " for world of " << world);
  obs::Span connect_span("net.connect", "net");
  connect_span.arg("rank", rank);
  connect_span.arg("world", world);

  peers_.resize(static_cast<std::size_t>(world));
  listen_ = Socket::listen_on(opt_.host, 0, world + 8);
  session_ = rendezvous_register(opt_.host, rendezvous_port, rank, world,
                                 listen_.local_port(),
                                 opt_.connect_timeout_ms);

  const auto make_peer = [&](int r, Socket sock) {
    auto p = std::make_unique<Peer>();
    p->sock = std::move(sock);
    p->last_rx = Clock::now();  // the handshake just proved liveness
    peers_[static_cast<std::size_t>(r)] = std::move(p);
  };

  // Dial every lower rank (lower ranks are already accepting by induction:
  // rank 0 dials nobody, so its accept loop starts first).
  for (int j = 0; j < rank; ++j) {
    Socket s = Socket::connect_to(opt_.host, session_.peer_ports[
                                      static_cast<std::size_t>(j)],
                                  opt_.connect_timeout_ms);
    FrameHeader hello;
    hello.type = FrameType::kHello;
    hello.src = rank_;
    hello.tag = j;
    send_frame(s, hello);
    FrameHeader h;
    std::vector<std::byte> payload;
    PEACHY_REQUIRE(recv_frame(s, h, payload, opt_.connect_timeout_ms),
                   "rank " << rank_ << ": rank " << j
                           << " closed during the handshake");
    PEACHY_REQUIRE(h.type == FrameType::kHelloAck,
                   "rank " << rank_ << ": expected HELLO_ACK from rank " << j
                           << ", got frame type " << static_cast<int>(h.type));
    make_peer(j, std::move(s));
  }

  // Accept every higher rank, in whatever order they arrive.
  for (int n = 0; n < world - rank - 1; ++n) {
    Socket s = listen_.accept(opt_.connect_timeout_ms);
    FrameHeader h;
    std::vector<std::byte> payload;
    PEACHY_REQUIRE(recv_frame(s, h, payload, opt_.connect_timeout_ms),
                   "rank " << rank_ << ": peer closed before HELLO");
    PEACHY_REQUIRE(h.type == FrameType::kHello,
                   "rank " << rank_ << ": expected HELLO, got frame type "
                           << static_cast<int>(h.type));
    PEACHY_REQUIRE(h.tag == rank_, "rank " << rank_
                       << ": HELLO addressed to rank " << h.tag);
    PEACHY_REQUIRE(h.src > rank_ && h.src < world,
                   "rank " << rank_ << ": HELLO from unexpected rank "
                           << h.src);
    PEACHY_REQUIRE(!peers_[static_cast<std::size_t>(h.src)],
                   "rank " << rank_ << ": duplicate connection from rank "
                           << h.src);
    FrameHeader ack;
    ack.type = FrameType::kHelloAck;
    ack.src = rank_;
    ack.tag = h.src;
    send_frame(s, ack);
    make_peer(h.src, std::move(s));
  }

  PEACHY_CHECK(::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) == 0);
  reader_ = std::thread([this] { reader_loop(); });
  if (obs::enabled())
    obs::Tracer::global().instant(
        "net.mesh_up", "net",
        {{"rank", rank_}, {"links", world_ - 1}});
}

TcpTransport::~TcpTransport() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_reader();
  if (reader_.joinable()) reader_.join();
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void TcpTransport::throw_peer_dead(int peer_rank) {
  std::string why;
  {
    std::lock_guard lock(mu_);
    why = peer(peer_rank).why;
  }
  obs::FlightRecorder::global().note("net.throw_peer_died", peer_rank);
  obs::FlightRecorder::global().dump("peer-died");
  throw PeerDied(rank_, peer_rank, why.empty() ? "connection lost" : why);
}

void TcpTransport::mark_dead(int src, const std::string& why, bool graceful) {
  bool first = false;
  {
    std::lock_guard lock(mu_);
    Peer& p = peer(src);
    if (!p.dead) {
      p.dead = true;
      p.why = why;
      first = true;
    }
  }
  cv_.notify_all();
  if (first) {
    obs::FlightRecorder::global().note(
        graceful ? "net.peer_goodbye_eof" : "net.peer_dead", src);
    // A real death gets its post-mortem immediately — the application
    // thread may be wedged far from any throw site (or the whole failure
    // may be on another rank), so the reader writes the dump itself.
    if (!graceful) obs::FlightRecorder::global().dump("peer-died");
  }
}

void TcpTransport::write_or_queue(int r, struct iovec* iov, int iovcnt) {
  Peer& p = peer(r);
  std::size_t left = 0;
  for (int i = 0; i < iovcnt; ++i) left += iov[i].iov_len;
  // Behind a non-empty outbox the frame queues whole, keeping byte order.
  while (p.outbox.empty() && left > 0) {
    const ssize_t w = p.sock.sendv_some(iov, iovcnt);
    if (w < 0) break;  // kernel send buffer full: queue the rest
    left -= static_cast<std::size_t>(w);
    for (std::size_t done = static_cast<std::size_t>(w); done > 0;) {
      const std::size_t step = std::min(done, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      done -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --iovcnt;
      }
    }
  }
  if (left == 0) return;
  // Backpressure: the refused tail is copied so it outlives the caller —
  // the one place framing gives up zero-copy, bounded by kOutboxBoundBytes.
  std::vector<std::byte> tail;
  tail.reserve(left);
  for (int i = 0; i < iovcnt; ++i) {
    const auto* b = static_cast<const std::byte*>(iov[i].iov_base);
    tail.insert(tail.end(), b, b + iov[i].iov_len);
  }
  p.outbox.push_back(std::move(tail));
  {
    std::lock_guard lock(mu_);
    p.outbox_bytes += left;
  }
  wake_reader();  // start polling this socket for POLLOUT
}

void TcpTransport::drain_outbox(int r) {
  Peer& p = peer(r);
  std::lock_guard wlock(p.write_mutex);
  std::size_t written = 0;
  try {
    while (!p.outbox.empty()) {
      struct iovec iov[64];
      int n = 0;
      for (auto it = p.outbox.begin(); it != p.outbox.end() && n < 64; ++it)
        iov[n++] = {it->data(), it->size()};
      iov[0].iov_base = p.outbox.front().data() + p.outbox_off;
      iov[0].iov_len -= p.outbox_off;
      ssize_t w = p.sock.sendv_some(iov, n);
      if (w < 0) break;  // buffer filled again; POLLOUT will re-fire
      written += static_cast<std::size_t>(w);
      for (auto left = static_cast<std::size_t>(w); left > 0;) {
        const std::size_t rest = p.outbox.front().size() - p.outbox_off;
        if (left < rest) {
          p.outbox_off += left;
          break;
        }
        left -= rest;
        p.outbox.pop_front();
        p.outbox_off = 0;
      }
    }
  } catch (const Error& e) {
    mark_dead(r, e.what());  // the queue dies with the connection
  }
  {
    std::lock_guard lock(mu_);
    p.outbox_bytes -= written;
  }
  cv_.notify_all();  // a parked sender or shutdown's drain may proceed
}

bool TcpTransport::write_frame(int r, const std::vector<std::byte>& frame) {
  Peer& p = peer(r);
  std::lock_guard lock(p.write_mutex);
  struct iovec one{const_cast<std::byte*>(frame.data()), frame.size()};
  try {
    write_or_queue(r, &one, 1);
    return true;
  } catch (const Error& e) {
    mark_dead(r, e.what());
    return false;
  }
}

void TcpTransport::wake_reader() {
  if (wake_pipe_[1] < 0) return;
  const char b = 'x';
  // EAGAIN means a wake-up is already pending — exactly as good.
  [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &b, 1);
}

void TcpTransport::wait_for_outbox_room(int r) {
  Peer& p = peer(r);
  std::unique_lock lock(mu_);
  if (!p.dead && p.outbox_bytes >= kOutboxBoundBytes) {
    ++stats_.window_stalls;
    if (obs::enabled()) obs_window_stalls().add(1);
    // The reader drains the outbox whenever the peer reads; a peer that
    // reads nothing for a whole recv timeout is as good as dead.
    if (!cv_.wait_for(lock, std::chrono::milliseconds(opt_.recv_timeout_ms),
                      [&] {
                        return p.dead || p.outbox_bytes < kOutboxBoundBytes;
                      })) {
      lock.unlock();
      mark_dead(r, "rank " + std::to_string(r) + " read nothing for " +
                       std::to_string(opt_.recv_timeout_ms) +
                       " ms while " + std::to_string(kOutboxBoundBytes) +
                       " bytes waited in the outbox");
      lock.lock();
    }
  }
  if (p.dead) {
    lock.unlock();
    throw_peer_dead(r);
  }
}

void TcpTransport::send(int dest, int tag, const void* data,
                        std::size_t bytes) {
  if (dest == rank_) {  // self-send never touches a socket
    Delivery d;
    d.payload.resize(bytes);
    if (bytes) std::memcpy(d.payload.data(), data, bytes);
    if (obs::enabled()) {
      const obs::cluster::TraceContext ctx = obs::cluster::current();
      if (ctx.valid()) {
        d.info.trace_id = ctx.trace_id;
        d.info.span_id = ctx.span_id;
        d.info.has_ctx = true;
      }
    }
    {
      std::lock_guard lock(mu_);
      channels_[{rank_, tag}].push_back(std::move(d));
    }
    cv_.notify_all();
    return;
  }
  PEACHY_REQUIRE(bytes <= kMaxPayloadBytes,
                 "payload of " << bytes << " bytes exceeds the "
                               << kMaxPayloadBytes << "-byte cap");
  wait_for_outbox_room(dest);

  FrameHeader h;
  h.type = FrameType::kData;
  h.src = rank_;
  h.tag = tag;
  h.len = static_cast<std::uint32_t>(bytes);
  h.crc = bytes ? bytes::crc32(data, bytes) : 0;
  // Trace-context propagation: a message sent under an active context
  // carries it as a trailer, linking the receiver's spans to this send.
  std::byte ctx[kCtxTrailerBytes];
  if (obs::enabled()) {
    const obs::cluster::TraceContext current = obs::cluster::current();
    if (current.valid()) {
      obs::cluster::encode_context(current, ctx);
      h.flags |= kFlagCarriesCtx;
    }
  }
  std::byte hdr[kHeaderBytes];
  struct iovec iov[3];
  int iovcnt = 0;
  iov[iovcnt++] = {hdr, kHeaderBytes};
  if (bytes) iov[iovcnt++] = {const_cast<void*>(data), bytes};
  if (h.flags & kFlagCarriesCtx) iov[iovcnt++] = {ctx, kCtxTrailerBytes};

  Peer& p = peer(dest);
  bool failed = false;
  {
    std::lock_guard wlock(p.write_mutex);
    if (opt_.fault.severs(p.send_seq)) {
      failed = true;
      p.sock.shutdown_both();
      {
        std::lock_guard lock(mu_);
        ++stats_.fault_severed;
      }
      mark_dead(dest, "fault injector severed the connection");
    } else {
      // Seq and stamp are taken under the write lock, so they follow wire
      // order even when several threads send to one peer.
      h.seq = p.send_seq++;
      h.sent_ns = now_ns();
      encode_header(h, hdr);
      try {
        write_or_queue(dest, iov, iovcnt);
      } catch (const Error& e) {
        mark_dead(dest, e.what());
        failed = true;
      }
    }
  }
  if (failed) throw_peer_dead(dest);

  if (obs::enabled()) {
    obs_frames_sent().add(1);
    obs_frame_bytes().observe(static_cast<std::int64_t>(kHeaderBytes + bytes));
    obs::Tracer::global().instant(
        "net.send", "net",
        {{"src", rank_},
         {"dst", dest},
         {"tag", tag},
         {"bytes", static_cast<std::int64_t>(bytes)}});
  }
}

std::vector<std::byte> TcpTransport::recv(int src, int tag, MsgInfo* info) {
  obs::Span span("net.recv", "net");
  span.arg("src", src);
  span.arg("dst", rank_);
  span.arg("tag", tag);
  std::unique_lock lock(mu_);
  auto& channel = channels_[{src, tag}];
  // A peer that said GOODBYE will never send again — fail a still-pending
  // recv right away instead of waiting for the socket to actually close.
  const bool got = cv_.wait_for(
      lock, std::chrono::milliseconds(opt_.recv_timeout_ms), [&] {
        return !channel.empty() ||
               (src != rank_ && (peer(src).dead || peer(src).goodbye));
      });
  if (channel.empty()) {
    if (src != rank_ && (peer(src).dead || peer(src).goodbye)) {
      const std::string why = peer(src).why;
      lock.unlock();
      obs::FlightRecorder::global().note("net.recv_orphaned", src, tag);
      obs::FlightRecorder::global().dump("recv-orphaned");
      throw PeerDied(rank_, src,
                     why.empty() ? "peer shut down with this recv pending"
                                 : why);
    }
    PEACHY_REQUIRE(got, "rank " << rank_ << ": recv from rank " << src
                                << " tag " << tag << " timed out after "
                                << opt_.recv_timeout_ms << " ms");
  }
  Delivery d = std::move(channel.front());
  channel.pop_front();
  if (info) *info = d.info;
  return std::move(d.payload);
}

bool TcpTransport::try_recv(int src, int tag, std::vector<std::byte>& out,
                            MsgInfo* info) {
  std::lock_guard lock(mu_);
  auto it = channels_.find({src, tag});
  if (it == channels_.end() || it->second.empty()) return false;
  Delivery d = std::move(it->second.front());
  it->second.pop_front();
  if (info) *info = d.info;
  out = std::move(d.payload);
  return true;
}

void TcpTransport::handle_frame(int src, const FrameHeader& h,
                                std::vector<std::byte> payload,
                                const std::byte* ctx_trailer) {
  Peer& p = peer(src);
  switch (h.type) {
    case FrameType::kData: {
      if (h.src != src) {
        mark_dead(src, "DATA frame claims src rank " +
                           std::to_string(h.src) + " on the link to rank " +
                           std::to_string(src));
        break;
      }
      // TCP delivers in order or not at all, so anything but the next seq
      // means the stream itself is corrupt.
      if (h.seq != p.recv_next) {
        mark_dead(src, std::string(seq_before(h.seq, p.recv_next)
                                       ? "repeated frame"
                                       : "sequence gap") +
                           ": got seq " + std::to_string(h.seq) +
                           ", expected " + std::to_string(p.recv_next));
        break;
      }
      ++p.recv_next;
      if (obs::enabled()) {
        // Every rank of a world runs on one host (threads of one process,
        // or processes forked from it), so the sender's CLOCK_MONOTONIC
        // stamp and this reading share one clock.
        obs_delivery_ns().observe(now_ns() - h.sent_ns);
        obs_frames_received().add(1);
      }
      Delivery d;
      d.payload = std::move(payload);
      if (ctx_trailer != nullptr) {
        const obs::cluster::TraceContext ctx =
            obs::cluster::decode_context(ctx_trailer);
        if (ctx.valid()) {
          d.info.trace_id = ctx.trace_id;
          d.info.span_id = ctx.span_id;
          d.info.has_ctx = true;
        }
      }
      {
        std::lock_guard lock(mu_);
        channels_[{src, h.tag}].push_back(std::move(d));
      }
      cv_.notify_all();
      break;
    }
    case FrameType::kGoodbye: {
      {
        std::lock_guard lock(mu_);
        p.goodbye = true;
      }
      cv_.notify_all();
      break;
    }
    case FrameType::kPing: {
      // Empty PING: pure liveness proof — last_rx was already refreshed by
      // the reader. A clock probe carries the sender's origin timestamp and
      // wants it echoed back next to our clock reading.
      if (payload.size() == 8) {
        const std::uint64_t origin =
            bytes::load_le<std::uint64_t>(payload.data());
        std::vector<std::byte> reply;
        bytes::append_u64(reply, origin);
        bytes::append_u64(reply, static_cast<std::uint64_t>(now_ns()));
        FrameHeader pong;
        pong.type = FrameType::kPong;
        pong.src = rank_;
        write_frame(src, encode_frame(pong, reply.data(), reply.size()));
      }
      break;
    }
    case FrameType::kPong: {
      if (payload.size() == 16) {
        bytes::Reader in(payload);
        const std::int64_t origin = in.i64();
        const std::int64_t peer_now = in.i64();
        bool accepted = false;
        std::int64_t offset_us = 0;
        {
          std::lock_guard lock(mu_);
          accepted = p.clock_est.sample(origin, peer_now, now_ns());
          offset_us = p.clock_est.offset_ns() / 1000;
        }
        if (accepted && obs::enabled())
          obs::Registry::global()
              .gauge("net.clock_offset_us.peer" + std::to_string(src))
              .set(offset_us);
      }
      break;
    }
    default:
      mark_dead(src, "unexpected frame type " +
                         std::to_string(static_cast<int>(h.type)) +
                         " after the handshake");
  }
}

void TcpTransport::heartbeat_pass() {
  if (opt_.heartbeat_ms <= 0) return;
  const auto now = Clock::now();
  const int suspicion_ms = opt_.suspicion_timeout_ms > 0
                               ? opt_.suspicion_timeout_ms
                               : 4 * opt_.heartbeat_ms;
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    Peer& p = peer(r);
    {
      std::lock_guard lock(mu_);
      // A peer that said goodbye is draining, not dead — stop judging it.
      if (p.dead || p.goodbye) continue;
    }
    if (!p.sock.valid()) continue;
    const auto silence_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - p.last_rx)
            .count();
    if (silence_ms > suspicion_ms) {
      // Unread bytes in the receive buffer are proof of liveness the
      // reader simply has not drained yet (it also writes batches now, so
      // a loaded machine can lag it past an aggressive suspicion timeout).
      // Suspect only a peer that is silent on the wire itself.
      pollfd pending{p.sock.fd(), POLLIN, 0};
      if (::poll(&pending, 1, 0) > 0 && (pending.revents & POLLIN)) {
        p.last_rx = now;  // reset the clock; the drain is already queued
        p.suspected = false;
        continue;
      }
      // Two-phase suspicion: a one-shot clock comparison cannot tell a
      // dead peer from one starved of CPU alongside this very thread.
      // The first trigger only arms suspicion and keeps pinging; the peer
      // is declared dead when it stays silent for a further full window
      // measured from a moment this reader was demonstrably running.
      if (p.suspected && p.last_rx <= p.suspect_since &&
          now - p.suspect_since > std::chrono::milliseconds(suspicion_ms)) {
        if (obs::enabled()) obs_heartbeats_missed().add(1);
        mark_dead(r, "no frames from rank " + std::to_string(r) + " for " +
                         std::to_string(silence_ms) +
                         " ms (heartbeat suspicion timeout " +
                         std::to_string(suspicion_ms) + " ms)");
        continue;
      }
      if (!p.suspected || p.last_rx > p.suspect_since) {
        p.suspected = true;
        p.suspect_since = now;
        obs::FlightRecorder::global().note(
            "net.peer_suspected", r, static_cast<std::int64_t>(silence_ms));
      }
      // Fall through: the suspect keeps receiving pings at heartbeat
      // cadence so an alive-but-idle peer has something to answer.
    } else {
      p.suspected = false;
    }
    if (now - p.last_ping_tx <
        std::chrono::milliseconds(opt_.heartbeat_ms))
      continue;
    p.last_ping_tx = now;
    FrameHeader ping;
    ping.type = FrameType::kPing;
    ping.src = rank_;
    if (!write_frame(r, encode_frame(ping, nullptr, 0))) continue;
    {
      std::lock_guard lock(mu_);
      ++stats_.heartbeats_sent;
    }
    if (obs::enabled()) obs_heartbeats_sent().add(1);
  }
}

void TcpTransport::clock_pass() {
  if (opt_.clock_sync_ms <= 0) return;
  const auto now = Clock::now();
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    Peer& p = peer(r);
    {
      std::lock_guard lock(mu_);
      if (p.dead || p.goodbye) continue;
    }
    if (!p.sock.valid()) continue;
    // The first few probes per peer go out at a tight cadence so even a
    // sub-second run converges on an estimate (the min-RTT filter needs a
    // couple of samples to find a clean round trip); after the burst the
    // cadence relaxes to clock_sync_ms.
    const int interval_ms = p.probes_sent < 4
                                ? std::min(opt_.clock_sync_ms, 20)
                                : opt_.clock_sync_ms;
    if (p.probes_sent > 0 &&
        now - p.last_probe_tx < std::chrono::milliseconds(interval_ms))
      continue;
    p.last_probe_tx = now;
    ++p.probes_sent;
    std::vector<std::byte> origin;
    bytes::append_i64(origin, now_ns());
    FrameHeader probe;
    probe.type = FrameType::kPing;
    probe.src = rank_;
    write_frame(r, encode_frame(probe, origin.data(), origin.size()));
  }
}

std::map<int, TcpTransport::ClockEstimate> TcpTransport::clock_estimates()
    const {
  std::map<int, ClockEstimate> out;
  std::lock_guard lock(mu_);
  for (int r = 0; r < world_; ++r) {
    if (r == rank_ || !peers_[static_cast<std::size_t>(r)]) continue;
    const auto& est = peers_[static_cast<std::size_t>(r)]->clock_est;
    if (!est.valid()) continue;
    out[r] = ClockEstimate{true, est.offset_ns(), est.min_rtt_ns(),
                           est.samples()};
  }
  return out;
}

void TcpTransport::reader_loop() {
  // With heartbeats on, wake at least twice per period so pings go out and
  // silence is noticed on time even when no socket turns readable. Clock
  // probes tighten the tick the same way.
  int base_ms = opt_.heartbeat_ms > 0
                    ? std::clamp(opt_.heartbeat_ms / 2, 1, 500)
                    : 500;
  if (opt_.clock_sync_ms > 0)
    base_ms = std::min(base_ms, std::clamp(opt_.clock_sync_ms / 2, 1, 500));
  std::vector<std::byte> chunk(256 * 1024);  // one recv_some scratch buffer
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;
      for (int r = 0; r < world_; ++r) {
        if (r == rank_) continue;
        Peer& p = peer(r);
        if (p.dead || !p.sock.valid()) continue;
        // POLLOUT only while backpressured bytes wait, else it would be
        // level-triggered busy polling on an idle writable socket.
        const short events =
            static_cast<short>(POLLIN | (p.outbox_bytes ? POLLOUT : 0));
        fds.push_back({p.sock.fd(), events, 0});
        fd_rank.push_back(r);
      }
    }
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    const int rc = ::poll(fds.data(), fds.size(), base_ms);
    if (rc > 0) {
      if (fds.back().revents & POLLIN) {
        char buf[256];  // drain every pending poke in one gulp
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        {
          std::lock_guard lock(mu_);
          if (stopping_) return;
        }
      }
      for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
        const int src = fd_rank[i];
        if (fds[i].revents & POLLOUT) drain_outbox(src);
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Peer& p = peer(src);
        // Drain the readable bytes without ever blocking: frames arrive in
        // arbitrary fragments, accumulate in rx_buf, and are handled as each
        // completes. The reader must not park inside a recv mid-frame — a
        // frame larger than the kernel buffers only finishes arriving if
        // this loop keeps coming back around to drain its own outbox, which
        // is what frees the peer's writes (and, transitively, the bytes this
        // side is waiting on). kMaxBurstBytes bounds one socket's turn so
        // the other sockets still get serviced under a sustained blast.
        std::size_t burst = 0;
        bool keep_reading = true;
        while (keep_reading && burst < kMaxBurstBytes) {
          ssize_t got = 0;
          try {
            got = p.sock.recv_some(chunk.data(), chunk.size());
          } catch (const Error& e) {
            mark_dead(src, e.what());
            break;
          }
          if (got < 0) break;  // drained for now; poll re-arms POLLIN
          if (got == 0) {      // EOF
            bool graceful;
            {
              std::lock_guard lock(mu_);
              graceful = p.goodbye;
            }
            mark_dead(
                src,
                !p.rx_buf.empty()
                    ? "connection closed mid-frame (" +
                          std::to_string(p.rx_buf.size()) +
                          " bytes of a frame pending)"
                : graceful ? "peer closed the connection (graceful shutdown)"
                           : "connection closed without a goodbye",
                /*graceful=*/graceful && p.rx_buf.empty());
            break;
          }
          p.last_rx = Clock::now();
          burst += static_cast<std::size_t>(got);
          p.rx_buf.insert(p.rx_buf.end(), chunk.data(), chunk.data() + got);
          // Handle every frame now complete in rx_buf; keep a partial tail.
          std::size_t off = 0;
          try {
            while (p.rx_buf.size() - off >= kHeaderBytes) {
              const FrameHeader h = decode_header(p.rx_buf.data() + off);
              // The trace-context trailer rides after the payload, outside
              // len/crc — it is part of this frame's wire footprint.
              const std::size_t trailer =
                  (h.flags & kFlagCarriesCtx) ? kCtxTrailerBytes : 0;
              if (p.rx_buf.size() - off < kHeaderBytes + h.len + trailer)
                break;
              const std::byte* body = p.rx_buf.data() + off + kHeaderBytes;
              if (h.len) {
                PEACHY_REQUIRE(bytes::crc32(body, h.len) == h.crc,
                               "payload CRC mismatch on a "
                                   << h.len << "-byte frame (corrupt link?)");
              }
              std::vector<std::byte> payload(body, body + h.len);
              const std::byte* ctx_trailer = trailer ? body + h.len : nullptr;
              off += kHeaderBytes + h.len + trailer;
              handle_frame(src, h, std::move(payload), ctx_trailer);
              {
                std::lock_guard lock(mu_);
                if (p.dead) {
                  keep_reading = false;
                  break;
                }
              }
            }
          } catch (const Error& e) {  // header/CRC: the stream is corrupt
            mark_dead(src, e.what());
            keep_reading = false;
          }
          if (off) {
            p.rx_buf.erase(p.rx_buf.begin(),
                           p.rx_buf.begin() + static_cast<std::ptrdiff_t>(off));
          }
        }
      }
    }
    heartbeat_pass();  // rc < 0 is EINTR; rc == 0 is the idle tick
    clock_pass();
  }
}

void TcpTransport::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // The GOODBYE queues behind every frame already sent, so a peer that
  // reads it has read everything before it.
  FrameHeader bye;
  bye.type = FrameType::kGoodbye;
  bye.src = rank_;
  const std::vector<std::byte> frame = encode_frame(bye, nullptr, 0);
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    {
      std::lock_guard lock(mu_);
      if (peer(r).dead) continue;
    }
    write_frame(r, frame);  // a peer that died first still counts as done
  }
  // Drain: wait (bounded) until every outbox is empty and every peer said
  // goodbye or died, so no rank closes a socket its neighbour still reads.
  {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(opt_.goodbye_timeout_ms),
                 [&] {
                   for (int r = 0; r < world_; ++r) {
                     if (r == rank_) continue;
                     const Peer& p = peer(r);
                     if (!p.dead && (p.outbox_bytes > 0 || !p.goodbye))
                       return false;
                   }
                   return true;
                 });
  }
  // The drain is bounded, so it can expire with frames still queued.
  // Abandoning those silently would break the delivery contract invisibly
  // (the loss would only surface as a confusing recv failure on the peer):
  // count every abandoned frame and kill the link, so the sender sees
  // PeerDied on any further use and stats()/net.frames_abandoned record
  // exactly how many sends never reached the peer.
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    Peer& p = peer(r);
    std::size_t leftover = 0;
    {
      std::lock_guard wlock(p.write_mutex);
      std::lock_guard lock(mu_);
      if (!p.dead) leftover = p.outbox.size();
      stats_.frames_abandoned += leftover;
    }
    if (!leftover) continue;
    if (obs::enabled())
      obs_frames_abandoned().add(static_cast<std::int64_t>(leftover));
    mark_dead(r, "shutdown abandoned " + std::to_string(leftover) +
                     " frame(s) still queued after the " +
                     std::to_string(opt_.goodbye_timeout_ms) +
                     " ms drain budget");
  }
}

TcpTransport::Stats TcpTransport::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace peachy::net

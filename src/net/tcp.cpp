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

/// Frames parked out of order beyond this distance from recv_next are
/// stream corruption, not reassembly work (the sender's window can never
/// legitimately run this far ahead).
constexpr std::uint64_t kMaxReassemblyGap = 1u << 16;
/// Bytes drained from one socket before the other sockets get a turn
/// (and before the burst's single cumulative ack goes out).
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
obs::Counter& obs_retransmits() {
  static obs::Counter& c = obs::Registry::global().counter("net.retransmits");
  return c;
}
obs::Counter& obs_window_stalls() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.window_stalls");
  return c;
}
obs::Counter& obs_cumulative_acks() {
  static obs::Counter& c =
      obs::Registry::global().counter("net.cumulative_acks");
  return c;
}
obs::Histogram& obs_coalesced_frames() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("net.coalesced_frames_per_writev");
  return h;
}
obs::Histogram& obs_frame_bytes() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("net.frame_bytes");
  return h;
}
obs::Histogram& obs_rtt_ns() {
  static obs::Histogram& h = obs::Registry::global().histogram("net.rtt_ns");
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
  PEACHY_REQUIRE(opt_.window_frames >= 1,
                 "window_frames must be >= 1, got " << opt_.window_frames);
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
    p->send_seq = opt_.first_seq;
    p->recv_next = opt_.first_seq;
    p->last_ack_sent = opt_.first_seq;
    p->last_rx = Clock::now();  // the handshake just proved liveness
    if (opt_.fault.active())
      p->fault = std::make_unique<FaultInjector>(opt_.fault, rank_, r);
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

void TcpTransport::write_or_queue(int r, struct iovec* iov,
                                  std::size_t iovcnt) {
  Peer& p = peer(r);
  std::size_t idx = 0;
  if (p.outbox_off == p.outbox.size()) {  // nothing queued: try the kernel
    p.outbox.clear();
    p.outbox_off = 0;
    while (idx < iovcnt) {
      const ssize_t w = p.sock.sendv_some(
          iov + idx,
          static_cast<int>(std::min<std::size_t>(iovcnt - idx, 1024)));
      if (w < 0) break;  // kernel send buffer full: queue the rest
      std::size_t left = static_cast<std::size_t>(w);
      while (idx < iovcnt && left >= iov[idx].iov_len) {
        left -= iov[idx].iov_len;
        ++idx;
      }
      if (idx < iovcnt && left > 0) {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
        iov[idx].iov_len -= left;
      }
    }
    if (idx == iovcnt) return;
  }
  // Backpressure: the refused tail is copied so it outlives the caller —
  // the one place framing gives up zero-copy, bounded by the window. New
  // writes behind a non-empty outbox queue in full to keep the byte order.
  if (p.outbox_off > 0) {
    p.outbox.erase(
        p.outbox.begin(),
        p.outbox.begin() + static_cast<std::ptrdiff_t>(p.outbox_off));
    p.outbox_off = 0;
  }
  for (std::size_t i = idx; i < iovcnt; ++i) {
    const auto* b = static_cast<const std::byte*>(iov[i].iov_base);
    p.outbox.insert(p.outbox.end(), b, b + iov[i].iov_len);
  }
  {
    std::lock_guard lock(mu_);
    p.outbox_pending = true;
  }
  wake_reader();  // start polling this socket for POLLOUT
}

void TcpTransport::drain_outbox(int r) {
  Peer& p = peer(r);
  std::lock_guard wlock(p.write_mutex);
  try {
    while (p.outbox_off < p.outbox.size()) {
      const ssize_t w = p.sock.send_some(p.outbox.data() + p.outbox_off,
                                         p.outbox.size() - p.outbox_off);
      if (w < 0) return;  // buffer filled again; POLLOUT will re-fire
      p.outbox_off += static_cast<std::size_t>(w);
    }
  } catch (const Error& e) {
    mark_dead(r, e.what());  // the queue dies with the connection
  }
  p.outbox.clear();
  p.outbox_off = 0;
  std::lock_guard lock(mu_);
  p.outbox_pending = false;
}

void TcpTransport::write_frame(int r, const std::vector<std::byte>& frame) {
  Peer& p = peer(r);
  std::lock_guard lock(p.write_mutex);
  struct iovec one{const_cast<std::byte*>(frame.data()), frame.size()};
  write_or_queue(r, &one, 1);
}

void TcpTransport::wake_reader() {
  if (wake_pipe_[1] < 0) return;
  const char b = 'x';
  // EAGAIN means a wake-up is already pending — exactly as good.
  [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &b, 1);
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

  Peer& p = peer(dest);
  std::lock_guard send_lock(p.send_mutex);

  // Window admission: park until the peer acks a slot free. Staged frames
  // can't be acked, so put them on the wire before waiting.
  const auto window = static_cast<std::size_t>(opt_.window_frames);
  bool stalled = false;
  {
    std::unique_lock lock(mu_);
    while (!p.dead && p.unacked.size() >= window) {
      if (!stalled) {
        stalled = true;
        ++window_stalls_;
        if (obs::enabled()) obs_window_stalls().add(1);
      }
      if (!p.staged.empty()) {
        lock.unlock();
        flush_peer(dest);
        lock.lock();
        continue;
      }
      // The reader's retransmit budget bounds this wait: it either frees
      // window space (ack progress) or marks the peer dead.
      cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
    if (p.dead) {
      lock.unlock();
      throw_peer_dead(dest);
    }
  }

  // Judge the fresh frame once, in seq order (send_mutex holds the order);
  // retransmissions bypass the injector.
  FaultInjector::Decision fault;
  if (p.fault) fault = p.fault->next();
  if (fault.sever) {
    p.sock.shutdown_both();
    mark_dead(dest, "fault injector severed the connection");
    throw_peer_dead(dest);
  }

  auto f = std::make_shared<TxFrame>();
  f->h.type = FrameType::kData;
  f->h.src = rank_;
  f->h.tag = tag;
  f->h.seq = p.send_seq++;
  f->h.len = static_cast<std::uint32_t>(bytes);
  f->h.crc = bytes ? bytes::crc32(data, bytes) : 0;
  f->payload.assign(static_cast<const std::byte*>(data),
                    static_cast<const std::byte*>(data) + bytes);
  f->staged_at = Clock::now();
  f->write_twice = fault.duplicate;
  if (fault.delay_ms > 0)
    f->hold_until = f->staged_at + std::chrono::milliseconds(fault.delay_ms);
  // Trace-context propagation: a message sent under an active context
  // carries it as a trailer, linking the receiver's spans to this send.
  // Attached before the injector's copies are written so drops, dups, and
  // delays all carry (and dedup to) the same context.
  if (obs::enabled()) {
    const obs::cluster::TraceContext ctx = obs::cluster::current();
    if (ctx.valid()) {
      obs::cluster::encode_context(ctx, f->ctx);
      f->has_ctx = true;
      f->h.flags |= kFlagCarriesCtx;
    }
  }

  bool flush_now = false;
  {
    std::lock_guard lock(mu_);
    if (p.unacked.empty()) {  // arm the per-peer timer for the oldest frame
      p.attempts = 0;
      p.retransmit_at =
          f->staged_at + std::chrono::milliseconds(opt_.ack_timeout_ms);
    }
    p.unacked.push_back(f);
    if (fault.drop) {
      // Never stage the first copy — the retransmit timer recovers it.
    } else if (fault.delay_ms > 0) {
      p.held.push_back(f);  // the reader writes it late: real reordering
    } else {
      p.staged.push_back(f);
      p.staged_bytes +=
          kHeaderBytes + bytes + (f->has_ctx ? kCtxTrailerBytes : 0);
      flush_now = p.staged_bytes >= opt_.coalesce_bytes;
    }
  }
  if (flush_now) flush_peer(dest);
  wake_reader();  // coalesce the rest: the reader flushes the batch

  if (obs::enabled())
    obs::Tracer::global().instant(
        "net.send", "net",
        {{"src", rank_},
         {"dst", dest},
         {"tag", tag},
         {"bytes", static_cast<std::int64_t>(bytes)}});
}

bool TcpTransport::write_batch(int r, const std::vector<TxFramePtr>& batch,
                               std::uint64_t ack) {
  // Header iovec + payload iovec per frame: nothing is copied into an
  // intermediate contiguous buffer on the way to the kernel.
  std::vector<struct iovec> iov;
  iov.reserve(batch.size() * 3 + 2);
  for (const auto& f : batch) {
    f->h.flags |= kFlagCarriesAck;
    f->h.ack = ack;
    encode_header(f->h, f->hdr);
    iov.push_back({f->hdr, kHeaderBytes});
    if (!f->payload.empty())
      iov.push_back({f->payload.data(), f->payload.size()});
    if (f->has_ctx) iov.push_back({f->ctx, kCtxTrailerBytes});
    if (f->write_twice) {  // injected duplicate: same bytes, same batch
      f->write_twice = false;
      iov.push_back({f->hdr, kHeaderBytes});
      if (!f->payload.empty())
        iov.push_back({f->payload.data(), f->payload.size()});
      if (f->has_ctx) iov.push_back({f->ctx, kCtxTrailerBytes});
    }
  }
  try {
    write_or_queue(r, iov.data(), iov.size());
  } catch (const Error& e) {
    mark_dead(r, e.what());
    return false;
  }
  if (obs::enabled()) {
    obs_frames_sent().add(static_cast<std::int64_t>(batch.size()));
    obs_coalesced_frames().observe(static_cast<std::int64_t>(batch.size()));
    for (const auto& f : batch)
      obs_frame_bytes().observe(
          static_cast<std::int64_t>(kHeaderBytes + f->payload.size()));
  }
  return true;
}

void TcpTransport::flush_peer(int r) {
  Peer& p = peer(r);
  {
    std::lock_guard lock(mu_);
    if (p.dead || p.staged.empty()) return;
  }
  std::lock_guard wlock(p.write_mutex);
  std::vector<TxFramePtr> batch;
  std::uint64_t ack_val = 0;
  bool carried_ack = false;
  {
    std::lock_guard lock(mu_);
    if (p.dead || p.staged.empty()) return;
    batch.assign(p.staged.begin(), p.staged.end());
    p.staged.clear();
    p.staged_bytes = 0;
    // Every DATA frame piggybacks the current cumulative ack, so a burst
    // flowing the other way usually needs no pure ACK at all.
    ack_val = p.recv_next;
    p.last_ack_sent = ack_val;
    if (p.ack_pending) {
      p.ack_pending = false;
      carried_ack = true;
      ++acks_sent_;
    }
  }
  if (write_batch(r, batch, ack_val) && carried_ack && obs::enabled())
    obs_cumulative_acks().add(1);
}

void TcpTransport::flush_all() {
  for (int r = 0; r < world_; ++r)
    if (r != rank_) flush_peer(r);
}

void TcpTransport::send_pure_ack(int r) {
  Peer& p = peer(r);
  {
    std::lock_guard lock(mu_);
    if (p.dead || !p.ack_pending) return;
  }
  std::lock_guard wlock(p.write_mutex);
  std::uint64_t ack_val = 0;
  {
    std::lock_guard lock(mu_);
    if (p.dead || !p.ack_pending) return;
    ack_val = p.recv_next;
    p.last_ack_sent = ack_val;
    p.ack_pending = false;
    ++acks_sent_;
  }
  FrameHeader a;
  a.type = FrameType::kAck;
  a.src = rank_;
  a.flags = kFlagCarriesAck;
  a.ack = ack_val;
  std::byte buf[kHeaderBytes];
  encode_header(a, buf);
  try {
    struct iovec one{buf, kHeaderBytes};
    write_or_queue(r, &one, 1);
  } catch (const Error& e) {
    mark_dead(r, e.what());
    return;
  }
  if (obs::enabled()) obs_cumulative_acks().add(1);
}

void TcpTransport::release_held(int r, Clock::time_point now) {
  Peer& p = peer(r);
  std::lock_guard lock(mu_);
  // hold_until is monotone within a peer (stage times are, and the plan's
  // delay is constant), so draining from the front is exact.
  while (!p.held.empty() && p.held.front()->hold_until <= now) {
    TxFramePtr f = p.held.front();
    p.held.pop_front();
    p.staged.push_back(f);
    p.staged_bytes += kHeaderBytes + f->payload.size() +
                      (f->has_ctx ? kCtxTrailerBytes : 0);
  }
}

void TcpTransport::retransmit_pass(int r, Clock::time_point now) {
  Peer& p = peer(r);
  {
    std::lock_guard lock(mu_);
    if (p.dead || p.unacked.empty() || now < p.retransmit_at) return;
  }
  std::lock_guard wlock(p.write_mutex);
  std::vector<TxFramePtr> batch;
  std::uint64_t ack_val = 0;
  bool exhausted = false;
  std::uint64_t oldest_seq = 0;
  {
    std::lock_guard lock(mu_);
    if (p.dead || p.unacked.empty() || now < p.retransmit_at) return;
    oldest_seq = p.unacked.front()->h.seq;
    // Go-back-N: rewrite everything unacked and due in one batch — the
    // receiver's reassembly buffer absorbs the overlap, and multiple
    // dropped frames recover in a single timeout.
    for (const auto& f : p.unacked)
      if (f->hold_until == Clock::time_point{} || f->hold_until <= now)
        batch.push_back(f);
    if (batch.empty()) {
      // Every unacked frame is still injector-held: no copy has reached
      // the wire yet, so the silence proves nothing about the link. Rearm
      // the timer to the earliest hold deadline without burning an
      // attempt — a hold longer than the backoff ladder must not kill a
      // healthy peer.
      auto earliest = Clock::time_point::max();
      for (const auto& f : p.unacked)
        earliest = std::min(earliest, f->hold_until);
      p.retransmit_at =
          earliest + std::chrono::milliseconds(opt_.ack_timeout_ms);
      return;
    }
    if (p.attempts >= opt_.max_retries) {
      exhausted = true;
    } else {
      ++p.attempts;
      const int backoff =
          std::min(opt_.ack_timeout_ms << std::min(p.attempts, 7), 10000);
      p.retransmit_at = now + std::chrono::milliseconds(backoff);
      if (p.outbox_off < p.outbox.size()) {
        // The previous copy has not even cleared this host's outbox (the
        // peer is not reading): rewriting would only duplicate bytes in
        // the local queue. The pass still costs an attempt — no ack while
        // the kernel refuses bytes is evidence against the peer, and the
        // retry budget must stay bounded.
        return;
      }
      // Staged frames are a subset of what's being rewritten; frames whose
      // injected hold just expired are being written here, not twice.
      p.staged.clear();
      p.staged_bytes = 0;
      while (!p.held.empty() && p.held.front()->hold_until <= now)
        p.held.pop_front();
      ack_val = p.recv_next;
      p.last_ack_sent = ack_val;
      if (p.ack_pending) {
        p.ack_pending = false;
        ++acks_sent_;
      }
      retransmits_ += batch.size();
    }
  }
  if (exhausted) {
    obs::FlightRecorder::global().note("net.retry_exhausted", r,
                                       static_cast<std::int64_t>(oldest_seq));
    mark_dead(r, "no ACK for seq " + std::to_string(oldest_seq) + " after " +
                     std::to_string(opt_.max_retries) + " retransmit passes");
    return;
  }
  if (batch.empty()) return;
  obs::FlightRecorder::global().note(
      "net.retransmit", r, static_cast<std::int64_t>(batch.size()),
      static_cast<std::int64_t>(oldest_seq));
  if (write_batch(r, batch, ack_val) && obs::enabled())
    obs_retransmits().add(static_cast<std::int64_t>(batch.size()));
}

void TcpTransport::apply_ack(int src, std::uint64_t ack) {
  Peer& p = peer(src);
  bool progress = false;
  {
    std::lock_guard lock(mu_);
    const auto now = Clock::now();
    while (!p.unacked.empty() && seq_before(p.unacked.front()->h.seq, ack)) {
      if (obs::enabled())
        obs_rtt_ns().observe(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - p.unacked.front()->staged_at)
                .count());
      p.unacked.pop_front();
      progress = true;
    }
    if (progress) {
      p.attempts = 0;  // the link is alive; restart the backoff ladder
      if (!p.unacked.empty())
        p.retransmit_at =
            now + std::chrono::milliseconds(opt_.ack_timeout_ms);
    }
  }
  if (progress) cv_.notify_all();  // window space freed; shutdown may drain
}

std::vector<std::byte> TcpTransport::recv(int src, int tag, MsgInfo* info) {
  obs::Span span("net.recv", "net");
  span.arg("src", src);
  span.arg("dst", rank_);
  span.arg("tag", tag);
  // Entering a blocking recv is a natural batch boundary: put everything
  // staged on the wire so the answer this recv waits on can be provoked.
  flush_all();
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
    case FrameType::kAck: {
      if (h.flags & kFlagCarriesAck) apply_ack(src, h.ack);
      break;
    }
    case FrameType::kData: {
      if (h.src != src) {
        mark_dead(src, "DATA frame claims src rank " +
                           std::to_string(h.src) + " on the link to rank " +
                           std::to_string(src));
        break;
      }
      if (h.flags & kFlagCarriesAck) apply_ack(src, h.ack);
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
      std::uint64_t delivered = 0;
      {
        std::lock_guard lock(mu_);
        if (h.seq == p.recv_next) {
          channels_[{src, h.tag}].push_back(std::move(d));
          ++p.recv_next;
          ++delivered;
          // Drain the reassembly run this frame just completed.
          for (auto it = p.reassembly.find(p.recv_next);
               it != p.reassembly.end();
               it = p.reassembly.find(p.recv_next)) {
            channels_[{src, it->second.first}].push_back(
                std::move(it->second.second));
            p.reassembly.erase(it);
            ++p.recv_next;
            ++delivered;
          }
        } else if (seq_before(p.recv_next, h.seq)) {
          if (h.seq - p.recv_next > kMaxReassemblyGap) {
            p.dead = true;
            p.why = "sequence gap: got " + std::to_string(h.seq) +
                    ", expected " + std::to_string(p.recv_next) +
                    " (beyond any legal window)";
          } else {
            // Out of order: park it. emplace keeps the first copy, so an
            // injected duplicate inside the window can never
            // double-deliver (and its context dedups with it — one
            // delivery, one context, no duplicate child spans).
            p.reassembly.emplace(h.seq, std::make_pair(h.tag, std::move(d)));
          }
        }
        // h.seq below recv_next: an already-delivered duplicate (injected,
        // or a retransmission that crossed our ack) — drop the payload but
        // re-ack below so the sender's window still opens.
        p.ack_pending = true;
      }
      cv_.notify_all();
      if (obs::enabled() && delivered)
        obs_frames_received().add(static_cast<std::int64_t>(delivered));
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
        try {
          write_frame(src, encode_frame(pong, reply.data(), reply.size()));
        } catch (const Error& e) {
          mark_dead(src, e.what());
        }
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
    try {
      write_frame(r, encode_frame(ping, nullptr, 0));
    } catch (const Error& e) {
      mark_dead(r, e.what());
      continue;
    }
    {
      std::lock_guard lock(mu_);
      ++heartbeats_sent_;
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
    try {
      write_frame(r, encode_frame(probe, origin.data(), origin.size()));
    } catch (const Error& e) {
      mark_dead(r, e.what());
    }
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

int TcpTransport::next_deadline_ms(int cap) {
  auto next = Clock::time_point::max();
  {
    std::lock_guard lock(mu_);
    for (int r = 0; r < world_; ++r) {
      if (r == rank_) continue;
      Peer& p = peer(r);
      if (p.dead) continue;
      if (!p.unacked.empty()) next = std::min(next, p.retransmit_at);
      if (!p.held.empty())
        next = std::min(next, p.held.front()->hold_until);
    }
  }
  if (next == Clock::time_point::max()) return cap;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      next - Clock::now())
                      .count();
  return static_cast<int>(std::clamp<long long>(ms, 1, cap));
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
            static_cast<short>(POLLIN | (p.outbox_pending ? POLLOUT : 0));
        fds.push_back({p.sock.fd(), events, 0});
        fd_rank.push_back(r);
      }
    }
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    const int rc = ::poll(fds.data(), fds.size(), next_deadline_ms(base_ms));
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
    // Service pass: write due held frames, flush staging (piggybacking
    // acks), answer each drained burst with one cumulative ack, and run
    // the per-peer retransmit timers.
    const auto now = Clock::now();
    for (int r = 0; r < world_; ++r) {
      if (r == rank_) continue;
      {
        std::lock_guard lock(mu_);
        if (peer(r).dead || !peer(r).sock.valid()) continue;
      }
      release_held(r, now);
      flush_peer(r);
      send_pure_ack(r);
      retransmit_pass(r, now);
    }
    heartbeat_pass();  // rc < 0 is EINTR; rc == 0 is the idle tick
    clock_pass();
  }
}

void TcpTransport::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // send() only promises window admission; shutdown is where delivery of
  // everything is confirmed. Flush staging, then drain the windows (the
  // reader keeps retransmitting and releasing held frames meanwhile).
  flush_all();
  {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(opt_.goodbye_timeout_ms),
                 [&] {
                   for (int r = 0; r < world_; ++r) {
                     if (r == rank_) continue;
                     const Peer& p = *peers_[static_cast<std::size_t>(r)];
                     if (!p.dead && !p.unacked.empty()) return false;
                   }
                   return true;
                 });
  }
  // The drain is bounded, so it can expire with frames still unacked.
  // Abandoning those silently would break the delivery contract invisibly
  // (the loss would only surface as a confusing recv failure on the peer):
  // count every abandoned frame and kill the link, so the sender sees
  // PeerDied on any further use and stats()/net.frames_abandoned record
  // exactly how many accepted sends were never confirmed.
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    std::size_t leftover = 0;
    {
      std::lock_guard lock(mu_);
      const Peer& p = peer(r);
      if (!p.dead) leftover = p.unacked.size();
      frames_abandoned_ += leftover;
    }
    if (!leftover) continue;
    if (obs::enabled())
      obs_frames_abandoned().add(static_cast<std::int64_t>(leftover));
    mark_dead(r, "shutdown abandoned " + std::to_string(leftover) +
                     " unacked frame(s): no ack within the " +
                     std::to_string(opt_.goodbye_timeout_ms) +
                     " ms drain budget");
  }
  FrameHeader bye;
  bye.type = FrameType::kGoodbye;
  bye.src = rank_;
  const std::vector<std::byte> frame = encode_frame(bye, nullptr, 0);
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    Peer& p = peer(r);
    {
      std::lock_guard lock(mu_);
      if (p.dead) continue;
    }
    try {
      write_frame(r, frame);
    } catch (const Error&) {
      // a peer that died first still counts as shut down
    }
  }
  // Drain: wait (bounded) until every peer said goodbye or died, so no rank
  // tears its sockets down while a neighbour still awaits an ACK.
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(opt_.goodbye_timeout_ms), [&] {
    for (int r = 0; r < world_; ++r) {
      if (r == rank_) continue;
      const Peer& p = *peers_[static_cast<std::size_t>(r)];
      if (!p.goodbye && !p.dead) return false;
    }
    return true;
  });
}

TcpTransport::Stats TcpTransport::stats() const {
  Stats s;
  {
    std::lock_guard lock(mu_);
    s.retransmits = retransmits_;
    s.window_stalls = window_stalls_;
    s.acks_sent = acks_sent_;
    s.heartbeats_sent = heartbeats_sent_;
    s.frames_abandoned = frames_abandoned_;
  }
  // Injector counters are written under each peer's send_mutex; reading
  // them here is only exact once the world has quiesced (which is when the
  // runtime collects stats).
  for (const auto& p : peers_) {
    if (!p || !p->fault) continue;
    const auto& c = p->fault->counters();
    s.fault.dropped += c.dropped;
    s.fault.duplicated += c.duplicated;
    s.fault.delayed += c.delayed;
    s.fault.severed += c.severed;
  }
  return s;
}

}  // namespace peachy::net

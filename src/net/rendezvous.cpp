#include "net/rendezvous.hpp"

#include <poll.h>

#include <chrono>

#include "net/wire.hpp"
#include "obs/obs.hpp"

namespace peachy::net {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

RendezvousServer::RendezvousServer(int world, bool collect_results,
                                   int timeout_ms)
    : world_(world),
      collect_results_(collect_results),
      timeout_ms_(timeout_ms),
      listener_(Socket::listen_on("127.0.0.1", 0, world + 8)),
      reports_(static_cast<std::size_t>(world)) {
  PEACHY_REQUIRE(world >= 1, "rendezvous needs >= 1 rank, got " << world);
  port_ = listener_.local_port();
}

RendezvousServer::~RendezvousServer() {
  if (thread_.joinable()) thread_.join();
}

void RendezvousServer::start() {
  thread_ = std::thread([this] {
    try {
      serve();
    } catch (...) {
      serve_error_ = std::current_exception();
    }
  });
}

void RendezvousServer::join() {
  if (thread_.joinable()) thread_.join();
  if (serve_error_) std::rethrow_exception(serve_error_);
}

void RendezvousServer::close_listener_in_child() { listener_.close(); }

void RendezvousServer::serve() {
  obs::Span span("net.rendezvous", "net");
  span.arg("world", world_);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms_);

  // Phase 1: every rank registers its peer-listener port.
  std::vector<Socket> clients(static_cast<std::size_t>(world_));
  std::vector<int> ports(static_cast<std::size_t>(world_), -1);
  for (int n = 0; n < world_; ++n) {
    Socket c = listener_.accept(remaining_ms(deadline));
    FrameHeader h;
    std::vector<std::byte> payload;
    PEACHY_REQUIRE(recv_frame(c, h, payload, remaining_ms(deadline)),
                   "rendezvous client closed before registering");
    PEACHY_REQUIRE(h.type == FrameType::kRegister,
                   "expected REGISTER, got frame type "
                       << static_cast<int>(h.type));
    PEACHY_REQUIRE(h.src >= 0 && h.src < world_,
                   "REGISTER from out-of-range rank " << h.src << " (world "
                                                      << world_ << ")");
    PEACHY_REQUIRE(ports[static_cast<std::size_t>(h.src)] < 0,
                   "rank " << h.src << " registered twice");
    ports[static_cast<std::size_t>(h.src)] = h.tag;
    clients[static_cast<std::size_t>(h.src)] = std::move(c);
  }

  // Phase 2: broadcast the table.
  const std::vector<std::byte> table = encode_table(ports);
  for (int r = 0; r < world_; ++r) {
    FrameHeader h;
    h.type = FrameType::kTable;
    h.src = -1;
    send_frame(clients[static_cast<std::size_t>(r)], h, table.data(),
               table.size());
  }

  if (!collect_results_) return;

  // Phase 3: collect one RESULT (or an EOF = early death) per rank.
  int outstanding = world_;
  while (outstanding > 0) {
    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    for (int r = 0; r < world_; ++r) {
      if (!clients[static_cast<std::size_t>(r)].valid()) continue;
      fds.push_back({clients[static_cast<std::size_t>(r)].fd(), POLLIN, 0});
      fd_rank.push_back(r);
    }
    const int rc = ::poll(fds.data(), fds.size(), remaining_ms(deadline));
    PEACHY_REQUIRE(rc != 0, "timed out waiting for " << outstanding
                                                     << " worker result(s)");
    if (rc < 0) continue;  // EINTR
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const int r = fd_rank[i];
      auto& report = reports_[static_cast<std::size_t>(r)];
      Socket& c = clients[static_cast<std::size_t>(r)];
      FrameHeader h;
      std::vector<std::byte> payload;
      bool got = false;
      try {
        got = recv_frame(c, h, payload, remaining_ms(deadline));
      } catch (const Error&) {
        got = false;  // torn frame from a dying worker = no report
      }
      if (got && h.type == FrameType::kResult) {
        report = decode_report(payload);
      } else if (got) {
        continue;  // stray frame (e.g. GOODBYE); keep draining
      }
      c.close();
      --outstanding;
    }
  }
}

RendezvousSession rendezvous_register(const std::string& host, int port,
                                      int rank, int world, int my_listen_port,
                                      int timeout_ms) {
  RendezvousSession session;
  session.sock = Socket::connect_to(host, port, timeout_ms);
  FrameHeader reg;
  reg.type = FrameType::kRegister;
  reg.src = rank;
  reg.tag = my_listen_port;
  send_frame(session.sock, reg);
  FrameHeader h;
  std::vector<std::byte> payload;
  PEACHY_REQUIRE(recv_frame(session.sock, h, payload, timeout_ms),
                 "rank " << rank
                         << ": rendezvous server closed before the table");
  PEACHY_REQUIRE(h.type == FrameType::kTable, "rank " << rank
                     << ": expected TABLE, got frame type "
                     << static_cast<int>(h.type));
  session.peer_ports = decode_table(payload, world);
  return session;
}

void rendezvous_report(const Socket& sock, int rank, const WorkerReport& r) {
  const std::vector<std::byte> payload = encode_report(r);
  FrameHeader h;
  h.type = FrameType::kResult;
  h.src = rank;
  send_frame(sock, h, payload.data(), payload.size());
}

std::vector<std::byte> encode_table(const std::vector<int>& ports) {
  std::vector<std::byte> out;
  for (const int p : ports)
    bytes::append_u32(out, static_cast<std::uint32_t>(p));
  return out;
}

std::vector<int> decode_table(std::span<const std::byte> payload, int world) {
  PEACHY_REQUIRE(payload.size() == static_cast<std::size_t>(world) * 4,
                 "TABLE has " << payload.size() << " bytes, expected "
                              << world * 4);
  bytes::Reader in(payload);
  std::vector<int> ports;
  for (int r = 0; r < world; ++r) ports.push_back(static_cast<int>(in.u32()));
  return ports;
}

std::vector<std::byte> encode_report(const WorkerReport& r) {
  std::vector<std::byte> out;
  out.push_back(static_cast<std::byte>(r.ok ? 1 : 0));
  for (const std::uint64_t v :
       {r.messages_sent, r.bytes_sent, r.window_stalls, r.frames_abandoned,
        r.fault_severed})
    bytes::append_u64(out, v);
  bytes::append_string(out, r.error);
  bytes::append_u32(out, static_cast<std::uint32_t>(r.result.size()));
  bytes::append_bytes(out, r.result.data(), r.result.size());
  return out;
}

WorkerReport decode_report(std::span<const std::byte> payload) {
  bytes::Reader in(payload);
  WorkerReport r;
  r.reported = true;
  r.ok = in.u8() != 0;
  for (std::uint64_t* v :
       {&r.messages_sent, &r.bytes_sent, &r.window_stalls,
        &r.frames_abandoned, &r.fault_severed})
    *v = in.u64();
  r.error = in.string();
  const std::span<const std::byte> result = in.take(in.u32());
  r.result.assign(result.begin(), result.end());
  return r;
}

}  // namespace peachy::net

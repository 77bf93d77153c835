#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace peachy::net {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  PEACHY_REQUIRE(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 "bad IPv4 address \"" << host << "\"");
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Polls `fd` for `events`; returns true when ready, false on timeout.
bool poll_one(int fd, short events, int timeout_ms) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR)
      throw Error(std::string("poll failed: ") + std::strerror(errno));
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::listen_on(const std::string& host, int port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  PEACHY_REQUIRE(s.valid(), "socket() failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = make_addr(host, port);
  PEACHY_REQUIRE(::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "bind(" << host << ":" << port
                         << ") failed: " << std::strerror(errno));
  PEACHY_REQUIRE(::listen(s.fd(), backlog) == 0,
                 "listen failed: " << std::strerror(errno));
  return s;
}

Socket Socket::connect_to(const std::string& host, int port, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const sockaddr_in addr = make_addr(host, port);
  for (;;) {
    Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    PEACHY_REQUIRE(s.valid(), "socket() failed: " << std::strerror(errno));
    const int flags = ::fcntl(s.fd(), F_GETFL);
    ::fcntl(s.fd(), F_SETFL, flags | O_NONBLOCK);
    const int rc =
        ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr));
    bool connected = rc == 0;
    if (!connected && errno == EINPROGRESS) {
      if (poll_one(s.fd(), POLLOUT, remaining_ms(deadline))) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
        connected = err == 0;
        errno = err;
      } else {
        errno = ETIMEDOUT;
      }
    }
    if (connected) {
      ::fcntl(s.fd(), F_SETFL, flags);
      set_nodelay(s.fd());
      return s;
    }
    // The peer's listener may simply not be up yet (rendezvous races);
    // retry refusals until the deadline.
    const bool retryable = errno == ECONNREFUSED || errno == ECONNRESET;
    PEACHY_REQUIRE(retryable && Clock::now() < deadline,
                   "connect to " << host << ":" << port
                                 << " failed: " << std::strerror(errno));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Socket Socket::accept(int timeout_ms) const {
  PEACHY_REQUIRE(poll_one(fd_, POLLIN, timeout_ms),
                 "accept timed out after " << timeout_ms << " ms");
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  PEACHY_REQUIRE(fd >= 0, "accept failed: " << std::strerror(errno));
  set_nodelay(fd);
  return Socket(fd);
}

int Socket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  PEACHY_REQUIRE(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0,
                 "getsockname failed: " << std::strerror(errno));
  return ntohs(addr.sin_port);
}

void Socket::send_all(const void* data, std::size_t n, int timeout_ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const auto* p = static_cast<const std::byte*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        PEACHY_REQUIRE(poll_one(fd_, POLLOUT, remaining_ms(deadline)),
                       "send timed out after " << timeout_ms
                           << " ms (" << n << " bytes still unwritten)");
        continue;
      }
      throw Error(std::string("send failed: ") + std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

ssize_t Socket::sendv_some(const struct iovec* iov, int iovcnt) const {
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(std::min(iovcnt, 1024));
  for (;;) {
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw Error(std::string("sendmsg failed: ") + std::strerror(errno));
  }
}

ssize_t Socket::recv_some(void* data, std::size_t n) const {
  for (;;) {
    const ssize_t r = ::recv(fd_, data, n, MSG_DONTWAIT);
    if (r >= 0) return r;  // 0 is EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw Error(std::string("recv failed: ") + std::strerror(errno));
  }
}

bool Socket::recv_all(void* data, std::size_t n, int timeout_ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  auto* p = static_cast<std::byte*>(data);
  std::size_t got = 0;
  while (got < n) {
    PEACHY_REQUIRE(poll_one(fd_, POLLIN, remaining_ms(deadline)),
                   "recv timed out after " << timeout_ms << " ms ("
                       << got << "/" << n << " bytes)");
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw Error(std::string("recv failed: ") + std::strerror(errno));
    }
    if (r == 0) {
      PEACHY_REQUIRE(got == 0, "connection closed mid-frame (" << got << "/"
                                                               << n
                                                               << " bytes)");
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void Socket::shutdown_write() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace peachy::net

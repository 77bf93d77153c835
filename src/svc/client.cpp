#include "svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/error.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace peachy::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// An error the daemon *answered* (kError/kNotFound). Re-asking cannot
/// change the answer, so the retry loop rethrows these untouched.
class ReplyError : public Error {
 public:
  using Error::Error;
};

bool idempotent(Op op) { return op != Op::kSubmit; }

/// Jitter in [backoff/2, backoff] from a cheap thread-local xorshift —
/// enough to decorrelate N clients hammering a restarting daemon, with
/// no shared state and no clock reads.
int jittered(int backoff_ms) {
  thread_local std::uint64_t seed =
      0x9e3779b97f4a7c15ull ^
      static_cast<std::uint64_t>(std::hash<std::thread::id>{}(
          std::this_thread::get_id()));
  seed ^= seed << 13;
  seed ^= seed >> 7;
  seed ^= seed << 17;
  const int half = std::max(1, backoff_ms / 2);
  return half + static_cast<int>(seed % static_cast<std::uint64_t>(half + 1));
}

}  // namespace

std::pair<ReplyStatus, std::vector<std::byte>> Client::call(
    Op op, const std::vector<std::byte>& payload,
    std::initializer_list<ReplyStatus> tolerate) const {
  const Clock::time_point deadline =
      retry_.call_deadline_ms > 0
          ? Clock::now() + std::chrono::milliseconds(retry_.call_deadline_ms)
          : Clock::time_point::max();
  const int attempts = std::max(1, retry_.max_attempts);
  int backoff = std::max(1, retry_.base_backoff_ms);
  for (int attempt = 1;; ++attempt) {
    int budget_ms = timeout_ms_;
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      PEACHY_REQUIRE(left > 0, "call deadline ("
                                   << retry_.call_deadline_ms
                                   << " ms) exhausted after " << (attempt - 1)
                                   << " attempts");
      budget_ms = static_cast<int>(
          std::min<long long>(budget_ms, left));
    }
    bool sent = false;
    try {
      return call_once(op, payload, tolerate, budget_ms, &sent);
    } catch (const ReplyError&) {
      throw;
    } catch (const Error&) {
      // Transport failure. Retry only if (a) attempts remain, (b) the op
      // is safe to re-send (idempotent, or the request never hit the
      // wire), and (c) the backoff still fits the deadline.
      if (attempt >= attempts) throw;
      if (sent && !idempotent(op)) throw;
      const int delay = jittered(backoff);
      if (Clock::now() + std::chrono::milliseconds(delay) >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      backoff = std::min(backoff * 2, std::max(1, retry_.max_backoff_ms));
    }
  }
}

std::pair<ReplyStatus, std::vector<std::byte>> Client::call_once(
    Op op, const std::vector<std::byte>& payload,
    std::initializer_list<ReplyStatus> tolerate, int attempt_timeout_ms,
    bool* sent) const {
  const net::Socket sock =
      net::Socket::connect_to(host_, port_, attempt_timeout_ms);
  net::FrameHeader h;
  h.type = net::FrameType::kJobRequest;
  h.tag = static_cast<std::int32_t>(op);
  *sent = true;
  net::send_frame(sock, h, payload.data(), payload.size());
  net::FrameHeader rh;
  std::vector<std::byte> reply;
  PEACHY_REQUIRE(net::recv_frame(sock, rh, reply, attempt_timeout_ms),
                 "peachyd closed the connection without replying");
  PEACHY_REQUIRE(rh.type == net::FrameType::kJobReply,
                 "expected a kJobReply frame, got type "
                     << static_cast<int>(rh.type));
  const auto status = static_cast<ReplyStatus>(rh.tag);
  if (status != ReplyStatus::kOk &&
      std::find(tolerate.begin(), tolerate.end(), status) == tolerate.end()) {
    std::string message;
    try {
      message = bytes::Reader(reply).string();
    } catch (const std::exception&) {
      message = "(unreadable reply)";
    }
    throw ReplyError("peachyd: " + message);
  }
  return {status, std::move(reply)};
}

SubmitResult Client::submit(const JobSpec& spec) const {
  std::vector<std::byte> payload;
  append_spec(payload, spec);
  auto [status, reply] =
      call(Op::kSubmit, payload, {ReplyStatus::kRejected});
  bytes::Reader in(reply);
  SubmitResult r;
  if (status == ReplyStatus::kOk) {
    r.accepted = true;
    r.id = in.u64();
  } else {
    r.reject_reason = in.string();
  }
  return r;
}

JobStatus Client::status(std::uint64_t id) const {
  std::vector<std::byte> payload;
  bytes::append_u64(payload, id);
  auto [status, reply] = call(Op::kStatus, payload);
  bytes::Reader in(reply);
  return read_status(in);
}

std::vector<std::byte> Client::result(std::uint64_t id) const {
  std::vector<std::byte> payload;
  bytes::append_u64(payload, id);
  auto [status, reply] = call(Op::kResult, payload);
  return std::move(reply);
}

std::string Client::cancel(std::uint64_t id) const {
  std::vector<std::byte> payload;
  bytes::append_u64(payload, id);
  auto [status, reply] = call(Op::kCancel, payload);
  return bytes::Reader(reply).string();
}

std::vector<JobBrief> Client::list(const std::string& tenant) const {
  std::vector<std::byte> payload;
  append_string(payload, tenant);
  auto [status, reply] = call(Op::kList, payload);
  bytes::Reader in(reply);
  return read_briefs(in);
}

ServiceStats Client::stats() const {
  auto [status, reply] = call(Op::kStats, {});
  bytes::Reader in(reply);
  return read_stats(in);
}

void Client::shutdown() const { call(Op::kShutdown, {}); }

JobStatus Client::await(std::uint64_t id, std::chrono::milliseconds deadline,
                        std::chrono::milliseconds poll_every) const {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    const JobStatus s = status(id);
    if (is_terminal(s.state)) return s;
    PEACHY_REQUIRE(std::chrono::steady_clock::now() < until,
                   "job " << id << " still " << to_string(s.state)
                          << " after " << deadline.count() << " ms");
    std::this_thread::sleep_for(poll_every);
  }
}

}  // namespace peachy::svc

// peachyctl — client library for the peachyd job service.
//
// Each call opens a fresh connection, sends one kJobRequest frame, reads
// the one kJobReply frame, and closes (protocol.hpp). The client is
// therefore trivially usable from many threads at once — there is no
// shared connection state — which is exactly what perfbench's concurrent
// clients do.
//
// Error model: transport failures and kError/kNotFound replies throw
// peachy::Error. kRejected (admission control) is an expected outcome, so
// submit() reports it in-band via SubmitResult instead of throwing —
// callers under backpressure retry, they don't unwind.
//
// Retries (RetryPolicy): a call that fails in *transport* — connect
// refused, daemon restarting, torn connection — is retried with jittered
// exponential backoff, bounded by max_attempts and the per-call deadline.
// Two rules keep this safe: an error the daemon *answered* (kError /
// kNotFound) is never retried, because re-asking cannot change the
// answer; and a non-idempotent op (kSubmit) is never retried once its
// request frame may have been received, because the daemon might have
// committed the first copy — a retry would double-submit. Everything
// else (status/result/cancel/list/stats/shutdown) is idempotent and
// retries at any point.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "svc/job.hpp"
#include "svc/protocol.hpp"

namespace peachy::svc {

struct SubmitResult {
  bool accepted = false;
  std::uint64_t id = 0;       ///< valid when accepted
  std::string reject_reason;  ///< set when !accepted
};

struct RetryPolicy {
  int max_attempts = 3;      ///< total tries per call; 1 = never retry
  int base_backoff_ms = 50;  ///< first retry delay, pre-jitter
  int max_backoff_ms = 2000;  ///< exponential growth cap
  /// Whole-call wall budget, attempts + backoffs included; 0 = none.
  int call_deadline_ms = 0;
};

class Client {
 public:
  Client(std::string host, int port, int timeout_ms = 10000,
         RetryPolicy retry = {})
      : host_(std::move(host)),
        port_(port),
        timeout_ms_(timeout_ms),
        retry_(retry) {}

  /// Submits a job; kRejected comes back in-band (see header).
  SubmitResult submit(const JobSpec& spec) const;

  JobStatus status(std::uint64_t id) const;

  /// The DONE result blob (runner.hpp formats). Throws if not DONE.
  std::vector<std::byte> result(std::uint64_t id) const;

  /// Requests cancellation. Returns the daemon's message ("cancelled" for
  /// a queued job, "cancellation requested" for a running one). Throws
  /// kNotFound as an error.
  std::string cancel(std::uint64_t id) const;

  /// Jobs visible on the daemon; `tenant` = "" lists every tenant.
  std::vector<JobBrief> list(const std::string& tenant = "") const;

  ServiceStats stats() const;

  /// Asks the daemon to shut down (it drains running jobs and exits).
  void shutdown() const;

  /// Polls status() until the job is terminal or the deadline passes.
  /// Returns the final status; throws on timeout.
  JobStatus await(std::uint64_t id, std::chrono::milliseconds deadline,
                  std::chrono::milliseconds poll_every =
                      std::chrono::milliseconds(20)) const;

 private:
  /// One request with retries per RetryPolicy; throws on kError/kNotFound
  /// unless the caller opted to see them (`tolerate` holds statuses
  /// passed through).
  std::pair<ReplyStatus, std::vector<std::byte>> call(
      Op op, const std::vector<std::byte>& payload,
      std::initializer_list<ReplyStatus> tolerate = {}) const;
  /// A single connect/send/recv round-trip. Sets *sent once the request
  /// frame is (possibly) on the wire — the point past which kSubmit must
  /// not be retried.
  std::pair<ReplyStatus, std::vector<std::byte>> call_once(
      Op op, const std::vector<std::byte>& payload,
      std::initializer_list<ReplyStatus> tolerate, int attempt_timeout_ms,
      bool* sent) const;

  std::string host_;
  int port_ = 0;
  int timeout_ms_ = 10000;
  RetryPolicy retry_;
};

}  // namespace peachy::svc

// Rendezvous: how a world of TCP ranks finds itself.
//
// One well-known endpoint (the launcher's listener — the same process as
// rank 0 in the threaded tcp mode) accepts one connection per rank. Each
// rank REGISTERs its own peer-listener port; once all `world` ranks are in,
// the server broadcasts the full port TABLE and the ranks wire up a
// deterministic mesh (rank i dials every j < i, accepts every j > i).
//
// For spawned (multi-process) worlds the registration connection stays open
// and doubles as the result channel: after its body finishes, a worker
// sends one RESULT frame carrying success/failure, its comm stats, net
// fault counters, and an optional opaque result blob from rank 0. A worker
// that dies early shows up as EOF-without-RESULT, which the launcher turns
// into a named error instead of a hang.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace peachy::net {

/// What one worker tells the launcher when it finishes (or fails).
struct WorkerReport {
  bool reported = false;  ///< false => the worker died before reporting
  bool ok = false;
  std::string error;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t frames_abandoned = 0;
  std::uint64_t fault_severed = 0;
  std::vector<std::byte> result;  ///< rank 0's result blob, empty elsewhere
};

class RendezvousServer {
 public:
  /// Binds immediately (ephemeral port); serving starts with start() or
  /// serve(). `collect_results` keeps registrations open for RESULT frames.
  RendezvousServer(int world, bool collect_results, int timeout_ms);
  ~RendezvousServer();

  int port() const { return port_; }

  /// Serves on a background thread (threaded tcp mode).
  void start();

  /// Serves inline until every rank registered (and, when collecting,
  /// reported or died). Spawn mode calls this in the parent so no thread
  /// exists at fork() time.
  void serve();

  /// Joins the background thread and rethrows any serve() failure.
  void join();

  /// Forked children inherit the listening fd; they must drop it so the
  /// rendezvous dies with the launcher, not with the last worker.
  void close_listener_in_child();

  /// Valid after serve()/join(). Indexed by rank.
  std::vector<WorkerReport>& reports() { return reports_; }

 private:
  int world_;
  bool collect_results_;
  int timeout_ms_;
  Socket listener_;
  int port_ = 0;
  std::thread thread_;
  std::exception_ptr serve_error_;
  std::vector<WorkerReport> reports_;
};

/// A rank's side of the rendezvous: the open server connection plus the
/// port table it learned.
struct RendezvousSession {
  Socket sock;
  std::vector<int> peer_ports;  ///< indexed by rank
};

/// Connects, registers (rank, my_listen_port), and waits for the table.
RendezvousSession rendezvous_register(const std::string& host, int port,
                                      int rank, int world, int my_listen_port,
                                      int timeout_ms);

/// Sends the worker's RESULT frame over the (still open) session socket.
void rendezvous_report(const Socket& sock, int rank, const WorkerReport& r);

// Payload codecs (DESIGN.md "Byte formats"). TABLE: one u32 listen port
// per rank. RESULT: u8 ok | 10 x u64 counters | string error | u32 length
// | result bytes.
std::vector<std::byte> encode_table(const std::vector<int>& ports);
std::vector<int> decode_table(std::span<const std::byte> payload, int world);
std::vector<std::byte> encode_report(const WorkerReport& r);
WorkerReport decode_report(std::span<const std::byte> payload);

}  // namespace peachy::net

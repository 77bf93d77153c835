// Crash flight recorder: an always-on, fixed-size ring of recent notable
// events (DESIGN.md "Distributed telemetry").
//
// Full tracing is opt-in and heavy; the flight recorder is neither. Every
// rank keeps the last kCapacity low-frequency events — peer deaths, peer
// suspicion, orphaned receives, checkpoint landmarks — in a preallocated
// ring written with one fetch_add and a few stores, cheap enough to stay on
// even when obs::enabled() is false. When a rank dies (PeerDied, fatal
// signal) the ring is dumped to flight-<rank>.json,
// turning a failed seeded-fault run from pass/fail into a post-mortem.
//
// Notes are fixed-size POD (no allocation, no strings beyond a bounded
// name) so note() is safe from any thread and dump-on-signal needs only
// async-signal-safe calls: the dump path formats integers by hand into a
// stack buffer and uses write(2), never stdio or malloc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace peachy::obs {

/// The per-process flight recorder. All methods are thread-safe; note() is
/// lock-free and allocation-free.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 4096;  ///< entries kept (ring)
  static constexpr std::size_t kNameBytes = 24;   ///< name truncation bound

  /// The process-wide recorder every subsystem feeds.
  static FlightRecorder& global();

  /// Records one event: a short static-ish name plus up to four numeric
  /// arguments. Safe from any thread, never blocks, never allocates.
  void note(const char* name, std::int64_t a0 = 0, std::int64_t a1 = 0,
            std::int64_t a2 = 0, std::int64_t a3 = 0);

  /// Stamps this process's rank into dump filenames (flight-<rank>.json).
  /// Without an identity the dump is named flight.json.
  void set_identity(int rank);
  int identity() const;

  /// Directory dumps land in. Defaults to $PEACHY_FLIGHT_DIR, else ".".
  void set_dump_dir(const std::string& dir);

  /// Writes the ring (oldest first) to flight-<rank>.json in the dump dir,
  /// with `reason` recorded in the header. Returns the path written, or ""
  /// when the ring is empty. Safe to call multiple times (later dumps
  /// overwrite — the last reason a rank died for is the one that matters).
  std::string dump(const char* reason);

  /// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that dump the ring
  /// via async-signal-safe writes, then re-raise with the default handler
  /// so the process still dies with the original signal. Idempotent.
  static void install_crash_handler();

  /// Events recorded since start (may exceed kCapacity; the ring keeps the
  /// newest kCapacity of them).
  std::uint64_t total_notes() const;

  /// Testing hook: forget everything recorded so far.
  void clear();

 private:
  FlightRecorder();
};

}  // namespace peachy::obs

// Wire protocol for the peachy socket transport (DESIGN.md "Transports").
//
// Every unit on the wire — handshake, data, control, rendezvous traffic — is one
// *frame*: a fixed 40-byte little-endian header optionally followed by a
// payload. The header is versioned (a connection is refused when the two
// ends disagree) and carries a CRC32 of the payload so corruption is caught
// at the receiver instead of surfacing as a wrong grid cell three layers up.
//
// Layout (offsets in bytes, little-endian):
//   0  u32 magic   "PEAC" (0x43414550 as LE bytes 'P','E','A','C')
//   4  u16 version kWireVersion
//   6  u8  type    FrameType
//   7  u8  flags   FrameFlag bits
//   8  i32 src     sending rank (or rendezvous client rank)
//   12 i32 tag     message tag / handshake destination rank / listen port
//   16 u64 seq     per-connection data sequence number (0, 1, 2, ...)
//   24 i64 sent_ns sender's steady-clock stamp when the frame was sent
//   32 u32 len     payload bytes following the header
//   36 u32 crc     CRC32 (IEEE) of the payload, 0 when len == 0
//
// TCP already delivers a stream in order or not at all, so there are no
// acks: v3 replaced v2's cumulative `ack` field with `sent_ns`, from which
// the receiver reads a frame's one-way delivery time. `seq` stays as a
// check: a gap or a repeat on receipt means the stream is corrupt.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bytes.hpp"
#include "core/error.hpp"

namespace peachy::net {

inline constexpr std::uint16_t kWireVersion = 3;
inline constexpr std::size_t kHeaderBytes = 40;
/// Frames larger than this are rejected as corrupt (a 4096x4096 u32 grid
/// gathered in one message is 64 MiB; leave headroom above that).
inline constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< mesh handshake: src=connector rank, tag=acceptor rank
  kHelloAck = 2,  ///< handshake accepted
  kData = 3,      ///< application message: src, tag, seq, payload
                  ///< (4 was v2's ACK)
  kGoodbye = 5,   ///< graceful close; EOF after this is not a peer death
  kRegister = 6,  ///< rendezvous: src=rank, tag=peer listen port
  kTable = 7,     ///< rendezvous reply: payload = world_size u32 ports
  kResult = 8,    ///< spawned worker -> launcher: stats + status + result
  kPing = 9,      ///< heartbeat; proves liveness. No payload in heartbeat
                  ///< use; clock probes carry an 8-byte origin timestamp
  kPong = 10,     ///< clock-probe reply: payload = origin echo + peer now_ns
  kJobRequest = 11,  ///< peachyctl -> peachyd: tag = svc request op
  kJobReply = 12,    ///< peachyd -> peachyctl: tag = svc status code
};

/// FrameHeader::flags bits.
enum FrameFlag : std::uint8_t {
  /// A 16-byte trace-context trailer (trace_id u64, parent span_id u64,
  /// little-endian) follows the payload. The trailer rides *after* the
  /// payload and outside `len`/`crc` — CRC semantics of every existing
  /// frame are untouched, and a receiver that knows the flag consumes
  /// it without any header-layout change. Only DATA frames carry it.
  kFlagCarriesCtx = 0x02,
};

/// Byte count of the kFlagCarriesCtx trailer.
inline constexpr std::size_t kCtxTrailerBytes = 16;

struct FrameHeader {
  std::uint16_t version = kWireVersion;
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint64_t seq = 0;
  std::int64_t sent_ns = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};

/// Serial-number comparison (RFC 1982 style): true when `a` precedes `b`
/// even across a u64 wrap. The receiver uses it to tell a repeated frame
/// from a skipped one.
inline bool seq_before(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(a - b) < 0;
}

/// Serializes `h` into exactly kHeaderBytes at `out`.
void encode_header(const FrameHeader& h, std::byte* out);

/// Parses a header; throws peachy::Error on bad magic, version mismatch
/// (the message names both versions), unknown type, or oversized len.
FrameHeader decode_header(const std::byte* in);

/// Header + payload in one contiguous buffer (one write syscall per frame).
std::vector<std::byte> encode_frame(FrameHeader h, const void* payload,
                                    std::size_t bytes);

class Socket;

/// Writes one frame (header + payload) in a single send.
void send_frame(const Socket& sock, FrameHeader h, const void* payload = nullptr,
                std::size_t bytes = 0);

/// Reads one frame and verifies the payload CRC. Returns false on clean EOF
/// before the header; throws on timeout, torn frames, or CRC mismatch.
/// A kFlagCarriesCtx trailer is consumed from the stream and stored in
/// `ctx_trailer` when given (else discarded), so callers that ignore trace
/// contexts — rendezvous, handshakes, tests' fake peers — never desync.
bool recv_frame(const Socket& sock, FrameHeader& header,
                std::vector<std::byte>& payload, int timeout_ms,
                std::byte (*ctx_trailer)[kCtxTrailerBytes] = nullptr);

// Payload codecs live in core/bytes.hpp; these two names stay for callers
// outside src/ that spell them net::.
using bytes::append_u32;
using bytes::append_u64;

}  // namespace peachy::net

#include "net/wire.hpp"

#include <cstring>

#include "net/socket.hpp"

namespace peachy::net {

constexpr std::uint32_t kMagic = 0x43414550u;  // "PEAC" little-endian

void encode_header(const FrameHeader& h, std::byte* out) {
  using bytes::store_le;
  store_le(out + 0, kMagic);
  store_le(out + 4, h.version);
  out[6] = static_cast<std::byte>(h.type);
  out[7] = static_cast<std::byte>(h.flags);
  store_le(out + 8, static_cast<std::uint32_t>(h.src));
  store_le(out + 12, static_cast<std::uint32_t>(h.tag));
  store_le(out + 16, h.seq);
  store_le(out + 24, static_cast<std::uint64_t>(h.sent_ns));
  store_le(out + 32, h.len);
  store_le(out + 36, h.crc);
}

FrameHeader decode_header(const std::byte* in) {
  using bytes::load_le;
  const auto magic = load_le<std::uint32_t>(in);
  PEACHY_REQUIRE(magic == kMagic, "bad frame magic 0x"
                                      << std::hex << magic
                                      << " (not a peachy_net peer?)");
  FrameHeader h;
  h.version = load_le<std::uint16_t>(in + 4);
  PEACHY_REQUIRE(h.version == kWireVersion,
                 "wire protocol version mismatch: peer speaks v" << h.version
                     << ", this build speaks v" << kWireVersion);
  const auto type = std::to_integer<std::uint8_t>(in[6]);
  PEACHY_REQUIRE(type >= 1 && type <= 12 && type != 4,
                 "unknown frame type " << int{type});
  h.type = static_cast<FrameType>(type);
  h.flags = std::to_integer<std::uint8_t>(in[7]);
  h.src = static_cast<std::int32_t>(load_le<std::uint32_t>(in + 8));
  h.tag = static_cast<std::int32_t>(load_le<std::uint32_t>(in + 12));
  h.seq = load_le<std::uint64_t>(in + 16);
  h.sent_ns = static_cast<std::int64_t>(load_le<std::uint64_t>(in + 24));
  h.len = load_le<std::uint32_t>(in + 32);
  PEACHY_REQUIRE(h.len <= kMaxPayloadBytes,
                 "frame payload of " << h.len << " bytes exceeds the "
                                     << kMaxPayloadBytes << "-byte cap");
  h.crc = load_le<std::uint32_t>(in + 36);
  return h;
}

std::vector<std::byte> encode_frame(FrameHeader h, const void* payload,
                                    std::size_t bytes) {
  PEACHY_REQUIRE(bytes <= kMaxPayloadBytes,
                 "payload of " << bytes << " bytes exceeds the "
                               << kMaxPayloadBytes << "-byte cap");
  h.len = static_cast<std::uint32_t>(bytes);
  h.crc = bytes ? bytes::crc32(payload, bytes) : 0;
  std::vector<std::byte> frame(kHeaderBytes + bytes);
  encode_header(h, frame.data());
  if (bytes) std::memcpy(frame.data() + kHeaderBytes, payload, bytes);
  return frame;
}

void send_frame(const Socket& sock, FrameHeader h, const void* payload,
                std::size_t bytes) {
  const std::vector<std::byte> frame = encode_frame(h, payload, bytes);
  sock.send_all(frame.data(), frame.size());
}

bool recv_frame(const Socket& sock, FrameHeader& header,
                std::vector<std::byte>& payload, int timeout_ms,
                std::byte (*ctx_trailer)[kCtxTrailerBytes]) {
  std::byte raw[kHeaderBytes];
  if (!sock.recv_all(raw, kHeaderBytes, timeout_ms)) return false;
  header = decode_header(raw);
  payload.resize(header.len);
  if (header.len) {
    PEACHY_REQUIRE(sock.recv_all(payload.data(), header.len, timeout_ms),
                   "connection closed before " << header.len
                                               << "-byte payload arrived");
    PEACHY_REQUIRE(bytes::crc32(payload.data(), payload.size()) == header.crc,
                   "payload CRC mismatch on a " << header.len
                                                << "-byte frame (corrupt link?)");
  }
  if (header.flags & kFlagCarriesCtx) {
    std::byte discard[kCtxTrailerBytes];
    std::byte* dst = ctx_trailer ? *ctx_trailer : discard;
    PEACHY_REQUIRE(sock.recv_all(dst, kCtxTrailerBytes, timeout_ms),
                   "connection closed before the trace-context trailer");
  }
  return true;
}

}  // namespace peachy::net

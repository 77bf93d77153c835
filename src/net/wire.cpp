#include "net/wire.hpp"

#include <array>
#include <cstring>

#include "net/socket.hpp"

namespace peachy::net {

namespace {

constexpr std::uint32_t kMagic = 0x43414550u;  // "PEAC" little-endian

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_u16(std::byte* p, std::uint16_t v) {
  p[0] = static_cast<std::byte>(v & 0xff);
  p[1] = static_cast<std::byte>(v >> 8);
}
void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}
void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}
std::uint16_t get_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) |
                                    std::to_integer<std::uint16_t>(p[1]) << 8);
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | std::to_integer<std::uint32_t>(p[i]);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | std::to_integer<std::uint64_t>(p[i]);
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void encode_header(const FrameHeader& h, std::byte* out) {
  put_u32(out + 0, kMagic);
  put_u16(out + 4, h.version);
  out[6] = static_cast<std::byte>(h.type);
  out[7] = static_cast<std::byte>(h.flags);
  put_u32(out + 8, static_cast<std::uint32_t>(h.src));
  put_u32(out + 12, static_cast<std::uint32_t>(h.tag));
  put_u64(out + 16, h.seq);
  put_u64(out + 24, h.ack);
  put_u32(out + 32, h.len);
  put_u32(out + 36, h.crc);
}

FrameHeader decode_header(const std::byte* in) {
  PEACHY_REQUIRE(get_u32(in) == kMagic,
                 "bad frame magic 0x" << std::hex << get_u32(in)
                                      << " (not a peachy_net peer?)");
  FrameHeader h;
  h.version = get_u16(in + 4);
  PEACHY_REQUIRE(h.version == kWireVersion,
                 "wire protocol version mismatch: peer speaks v" << h.version
                     << ", this build speaks v" << kWireVersion);
  const auto type = std::to_integer<std::uint8_t>(in[6]);
  PEACHY_REQUIRE(type >= 1 && type <= 12, "unknown frame type " << int{type});
  h.type = static_cast<FrameType>(type);
  h.flags = std::to_integer<std::uint8_t>(in[7]);
  h.src = static_cast<std::int32_t>(get_u32(in + 8));
  h.tag = static_cast<std::int32_t>(get_u32(in + 12));
  h.seq = get_u64(in + 16);
  h.ack = get_u64(in + 24);
  h.len = get_u32(in + 32);
  PEACHY_REQUIRE(h.len <= kMaxPayloadBytes,
                 "frame payload of " << h.len << " bytes exceeds the "
                                     << kMaxPayloadBytes << "-byte cap");
  h.crc = get_u32(in + 36);
  return h;
}

std::vector<std::byte> encode_frame(FrameHeader h, const void* payload,
                                    std::size_t bytes) {
  PEACHY_REQUIRE(bytes <= kMaxPayloadBytes,
                 "payload of " << bytes << " bytes exceeds the "
                               << kMaxPayloadBytes << "-byte cap");
  h.len = static_cast<std::uint32_t>(bytes);
  h.crc = bytes ? crc32(payload, bytes) : 0;
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
    PEACHY_REQUIRE(crc32(payload.data(), payload.size()) == header.crc,
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

void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  put_u32(out.data() + at, v);
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  put_u64(out.data() + at, v);
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes) std::memcpy(out.data() + at, data, bytes);
}

std::uint32_t read_u32(const std::byte*& p, const std::byte* end) {
  PEACHY_REQUIRE(end - p >= 4, "truncated payload (wanted 4 more bytes)");
  const std::uint32_t v = get_u32(p);
  p += 4;
  return v;
}

std::uint64_t read_u64(const std::byte*& p, const std::byte* end) {
  PEACHY_REQUIRE(end - p >= 8, "truncated payload (wanted 8 more bytes)");
  const std::uint64_t v = get_u64(p);
  p += 8;
  return v;
}

void require_count(std::uint64_t count, std::size_t min_bytes,
                   const std::byte* p, const std::byte* end) {
  const auto left = static_cast<std::uint64_t>(end - p);
  PEACHY_REQUIRE(count <= left / min_bytes,
                 "length field claims " << count << " elements of >= "
                                        << min_bytes << " bytes, but only "
                                        << left << " bytes remain");
}

}  // namespace peachy::net

// Wire protocol: header codec, CRC32, and corruption detection.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/error.hpp"

namespace peachy::net {
namespace {

TEST(Wire, HeaderRoundTrip) {
  FrameHeader h;
  h.type = FrameType::kData;
  h.flags = 7;
  h.src = 3;
  h.tag = -4242;
  h.seq = 0x0123456789abcdefULL;
  h.sent_ns = -0x0123456789abcdefLL;  // the field is signed
  h.len = 1024;
  h.crc = 0xdeadbeef;

  std::byte buf[kHeaderBytes];
  encode_header(h, buf);
  const FrameHeader back = decode_header(buf);
  EXPECT_EQ(back.version, kWireVersion);
  EXPECT_EQ(back.type, FrameType::kData);
  EXPECT_EQ(back.flags, 7);
  EXPECT_EQ(back.src, 3);
  EXPECT_EQ(back.tag, -4242);
  EXPECT_EQ(back.seq, 0x0123456789abcdefULL);
  EXPECT_EQ(back.sent_ns, -0x0123456789abcdefLL);
  EXPECT_EQ(back.len, 1024u);
  EXPECT_EQ(back.crc, 0xdeadbeefu);
}

TEST(Wire, SeqBeforeIsSerialArithmetic) {
  EXPECT_TRUE(seq_before(0, 1));
  EXPECT_FALSE(seq_before(1, 0));
  EXPECT_FALSE(seq_before(5, 5));
  // Across the u64 wrap: max precedes 0, and a range straddling the wrap
  // stays ordered.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_TRUE(seq_before(top, 0));
  EXPECT_TRUE(seq_before(top - 3, top));
  EXPECT_TRUE(seq_before(top, 7));
  EXPECT_FALSE(seq_before(7, top));
}

TEST(Wire, BadMagicRejected) {
  FrameHeader h;
  std::byte buf[kHeaderBytes];
  encode_header(h, buf);
  buf[0] = std::byte{0x00};
  EXPECT_THROW(decode_header(buf), Error);
}

TEST(Wire, VersionMismatchNamesBothVersions) {
  FrameHeader h;
  std::byte buf[kHeaderBytes];
  encode_header(h, buf);
  buf[4] = std::byte{99};  // version lives at offset 4 (LE u16)
  buf[5] = std::byte{0};
  try {
    decode_header(buf);
    FAIL() << "expected version mismatch to throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("99"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(kWireVersion)), std::string::npos)
        << msg;
  }
}

TEST(Wire, UnknownTypeRejected) {
  FrameHeader h;
  std::byte buf[kHeaderBytes];
  encode_header(h, buf);
  buf[6] = std::byte{200};
  EXPECT_THROW(decode_header(buf), Error);
  buf[6] = std::byte{4};  // v2's ACK: no such frame since v3
  EXPECT_THROW(decode_header(buf), Error);
}

TEST(Wire, OversizedLenRejected) {
  FrameHeader h;
  h.len = kMaxPayloadBytes + 1;
  std::byte buf[kHeaderBytes];
  encode_header(h, buf);
  EXPECT_THROW(decode_header(buf), Error);
}

// The frame CRC is core/bytes.hpp's, shared with every sealed file.
using bytes::crc32;

TEST(Wire, Crc32KnownVector) {
  // The canonical IEEE CRC32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Wire, Crc32EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Wire, EncodeFrameCarriesPayloadAndCrc) {
  const std::string payload = "ghost cells";
  FrameHeader h;
  h.type = FrameType::kData;
  h.src = 1;
  h.tag = 2;
  h.seq = 5;
  const std::vector<std::byte> frame =
      encode_frame(h, payload.data(), payload.size());
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());
  const FrameHeader back = decode_header(frame.data());
  EXPECT_EQ(back.len, payload.size());
  EXPECT_EQ(back.crc, crc32(payload.data(), payload.size()));
  EXPECT_EQ(std::memcmp(frame.data() + kHeaderBytes, payload.data(),
                        payload.size()),
            0);
}

TEST(Wire, CorruptedPayloadChangesCrc) {
  std::string payload = "halo exchange round 7";
  const std::uint32_t good = crc32(payload.data(), payload.size());
  payload[3] ^= 1;
  EXPECT_NE(crc32(payload.data(), payload.size()), good);
}

TEST(Wire, ScalarHelpersRoundTrip) {
  std::vector<std::byte> buf;
  append_u32(buf, 0xdeadbeefu);
  append_u64(buf, 0x0123456789abcdefULL);
  const char raw[3] = {'a', 'b', 'c'};
  bytes::append_bytes(buf, raw, 3);

  bytes::Reader in(buf);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.left(), 3u);
  // Reading past the end throws instead of walking off the buffer.
  EXPECT_THROW(in.u64(), Error);
  EXPECT_EQ(in.left(), 3u);
}

}  // namespace
}  // namespace peachy::net

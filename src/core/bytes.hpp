// The little-endian byte layout behind every wire and disk format
// (DESIGN.md "Byte formats"). Writers append to a byte vector; Reader is a
// bounded cursor that throws peachy::Error instead of reading past its end
// or sizing anything from a length field the input cannot back. A sealed
// file is `u32 magic | u32 version | body | u32 crc32 of everything above`,
// committed by write-to-temp + rename.
//
// Header-only and inline: peachy_obs sits below peachy_core and may include
// only core headers, and the shuffle record codec and the tcp frame CRC run
// once per message.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace peachy::bytes {

using Buffer = std::vector<std::byte>;

template <std::unsigned_integral T>
inline void store_le(std::byte* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

template <std::unsigned_integral T>
inline T load_le(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(std::to_integer<T>(p[i]) << (8 * i));
  return v;
}

// kCrcTables[0] is the classic byte table. kCrcTables[k][i] is the CRC
// state after byte i is followed by k zero bytes, so eight table lookups
// fold eight input bytes into the state at once (slicing-by-8).
inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}();

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320, reflected), eight bytes per
/// step; the same value as the one-lookup-per-byte loop.
inline std::uint32_t crc32(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    const std::uint32_t lo = c ^ load_le<std::uint32_t>(p);
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; bytes > 0; ++p, --bytes)
    c = t[0][(c ^ std::to_integer<std::uint32_t>(*p)) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// Raw bytes, no length prefix.
inline void append_bytes(Buffer& out, const void* data, std::size_t bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes);
  if (bytes) std::memcpy(out.data() + at, data, bytes);
}

template <std::unsigned_integral T>
inline void append_le(Buffer& out, T v) {
  out.resize(out.size() + sizeof(T));
  store_le(out.data() + out.size() - sizeof(T), v);
}
inline void append_u32(Buffer& out, std::uint32_t v) { append_le(out, v); }
inline void append_u64(Buffer& out, std::uint64_t v) { append_le(out, v); }
inline void append_i64(Buffer& out, std::int64_t v) {
  append_le(out, static_cast<std::uint64_t>(v));
}
inline void append_f64(Buffer& out, double v) {
  append_le(out, std::bit_cast<std::uint64_t>(v));
}

/// u32 length | bytes.
inline void append_string(Buffer& out, std::string_view s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  append_bytes(out, s.data(), s.size());
}

/// u64 length | bytes.
inline void append_blob(Buffer& out, std::span<const std::byte> blob) {
  append_u64(out, blob.size());
  append_bytes(out, blob.data(), blob.size());
}

/// A read cursor over a byte range. Reads advance it; running past the end
/// throws peachy::Error and leaves the cursor where it was.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::size_t left() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return p_ == end_; }

  /// The next `n` bytes, raw.
  std::span<const std::byte> take(std::uint64_t n) {
    if (n > left()) truncated(n, left());
    p_ += n;
    return {p_ - n, static_cast<std::size_t>(n)};
  }

  std::uint8_t u8() { return std::to_integer<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return load_le<std::uint32_t>(take(4).data()); }
  std::uint64_t u64() { return load_le<std::uint64_t>(take(8).data()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// u32 length | bytes.
  std::string string() {
    const std::span<const std::byte> s = take(u32());
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// u64 length | bytes.
  std::span<const std::byte> blob() { return take(u64()); }

  /// Returns `n` once `n` elements of at least `min_bytes` each are known to
  /// fit in the bytes left. Call it before sizing anything from a length
  /// field, so a lying count throws instead of allocating.
  std::uint64_t count(std::uint64_t n, std::size_t min_bytes) const {
    PEACHY_REQUIRE(n <= left() / min_bytes,
                   "length field claims " << n << " elements of >= "
                                          << min_bytes << " bytes, but only "
                                          << left() << " bytes remain");
    return n;
  }

  /// Throws unless every byte was consumed; `what` names the input.
  void expect_end(std::string_view what) const {
    PEACHY_REQUIRE(at_end(), what << " has " << left() << " trailing bytes");
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] static void truncated(
      std::uint64_t wanted, std::size_t left) {
    std::ostringstream os;
    os << "truncated input: wanted " << wanted << " more bytes, " << left
       << " left";
    throw Error(os.str());
  }

  const std::byte* p_;
  const std::byte* end_;
};

/// Starts a sealed image: `u32 magic | u32 version`. Append the body, then
/// seal() it.
inline Buffer begin_sealed(std::uint32_t magic, std::uint32_t version) {
  Buffer out;
  append_u32(out, magic);
  append_u32(out, version);
  return out;
}

/// Appends the trailer: the CRC32 of everything before it.
inline void seal(Buffer& image) {
  append_u32(image, crc32(image.data(), image.size()));
}

/// Checks a sealed image's CRC, then its magic and version (nothing in it
/// is trustworthy before the CRC passes), and returns a reader over the
/// body. `what` names the image in error messages.
inline Reader unseal(std::span<const std::byte> image, std::uint32_t magic,
                     std::uint32_t version, std::string_view what) {
  PEACHY_REQUIRE(image.size() >= 12,
                 what << " is truncated (" << image.size() << " bytes)");
  const std::size_t body_end = image.size() - 4;
  const auto stored = load_le<std::uint32_t>(image.data() + body_end);
  const std::uint32_t actual = crc32(image.data(), body_end);
  PEACHY_REQUIRE(stored == actual, what << " is corrupt: crc " << actual
                                        << " != stored " << stored);
  Reader in(image.first(body_end));
  PEACHY_REQUIRE(in.u32() == magic, what << " has bad magic");
  const std::uint32_t found = in.u32();
  PEACHY_REQUIRE(found == version, what << " has version " << found
                                        << ", this build reads " << version);
  return in;
}

/// Atomically replaces `path` with `data`: writes `tmp`, flushes it and
/// renames it over `path`. On failure `path` is left as it was.
inline void commit_file(const std::filesystem::path& path,
                        const std::filesystem::path& tmp,
                        std::span<const std::byte> data) {
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PEACHY_REQUIRE(out, "cannot open " << tmp.string());
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.flush();
    PEACHY_REQUIRE(out, "short write to " << tmp.string());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  PEACHY_REQUIRE(!ec, "cannot commit " << path.string() << ": "
                                       << ec.message());
}

/// The whole file, or nullopt when it cannot be opened (never committed,
/// or removed). Throws peachy::Error on a short read, and on a directory,
/// which opens like a file but whose end offset is no size.
inline std::optional<Buffer> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  PEACHY_REQUIRE(std::filesystem::is_regular_file(path),
                 path.string() << " is not a regular file");
  Buffer buf(static_cast<std::size_t>(std::max<std::streamoff>(in.tellg(), 0)));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  PEACHY_REQUIRE(in.gcount() == static_cast<std::streamsize>(buf.size()),
                 "short read from " << path.string());
  return buf;
}

}  // namespace peachy::bytes

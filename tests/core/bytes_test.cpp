// core/bytes.hpp behaviour no format test reaches: the sliced CRC against a
// bit-at-a-time reference, the sealed frame's rejections and a failed
// commit. Scalars, strings and counts are covered through every format by
// decoder_test and net_test.
#include "core/bytes.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string_view>

#include "core/error.hpp"

namespace peachy::bytes {
namespace {

constexpr std::uint32_t kMagic = 0x54534554;  // "TEST"
constexpr std::uint32_t kVersion = 2;

Buffer sealed(std::uint32_t magic, std::uint32_t version,
              const std::string& body = "body") {
  Buffer image = begin_sealed(magic, version);
  append_string(image, body);
  seal(image);
  return image;
}

Reader open_image(const Buffer& image) {
  return unseal(image, kMagic, kVersion, "test image");
}

// CRC32 one bit at a time, straight from the polynomial: no table shared
// with the code under test.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int b = 0; b < 8; ++b) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32, KnownVectors) {
  constexpr std::string_view check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> data = random_bytes(300 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 300; ++n)
      ASSERT_EQ(crc32(data.data() + offset, n),
                crc32_bitwise(data.data() + offset, n))
          << "offset " << offset << ", length " << n;
}

TEST(Crc32, MatchesTheBitwiseReferenceOnAMebibyte) {
  const std::vector<unsigned char> data = random_bytes(std::size_t{1} << 20, 2);
  EXPECT_EQ(crc32(data.data(), data.size()),
            crc32_bitwise(data.data(), data.size()));
}

TEST(SealedFrame, OpensToItsBody) {
  const Buffer image = sealed(kMagic, kVersion);
  Reader in = open_image(image);
  EXPECT_EQ(in.string(), "body");
  EXPECT_TRUE(in.at_end());
}

TEST(SealedFrame, RejectsBadMagic) {
  EXPECT_THROW(open_image(sealed(kMagic + 1, kVersion)), Error);
}

TEST(SealedFrame, RejectsWrongVersion) {
  EXPECT_THROW(open_image(sealed(kMagic, kVersion + 1)), Error);
}

TEST(SealedFrame, RejectsCrcMismatch) {
  Buffer image = sealed(kMagic, kVersion);
  image[9] ^= std::byte{0x01};  // inside the body's length field
  EXPECT_THROW(open_image(image), Error);
}

TEST(SealedFrame, RejectsAnImageShorterThanItsFrame) {
  const Buffer image = sealed(kMagic, kVersion, "");
  ASSERT_EQ(image.size(), 16u);
  // Below 12 bytes there is no room for magic, version and CRC.
  for (std::size_t n = 0; n < 12; ++n) {
    const Buffer cut(image.begin(), image.begin() + static_cast<long>(n));
    EXPECT_THROW(open_image(cut), Error) << n;
  }
}

TEST(CommitFile, FailedCommitLeavesThePreviousFileIntact) {
  char tmpl[] = "/tmp/peachy-bytes-XXXXXX";
  const std::filesystem::path dir = ::mkdtemp(tmpl);
  const std::filesystem::path file = dir / "state.bin";
  const std::filesystem::path tmp = dir / "state.tmp";
  const Buffer first = sealed(kMagic, kVersion, "first");
  commit_file(file, tmp, first);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  // A directory squatting on the temp path makes the next write fail.
  std::filesystem::create_directory(tmp);
  EXPECT_THROW(commit_file(file, tmp, sealed(kMagic, kVersion, "second")),
               Error);
  EXPECT_EQ(read_file(file), first);
  std::filesystem::remove_all(dir);
}

TEST(ReadFile, RejectsADirectoryAndMissesAMissingFile) {
  char tmpl[] = "/tmp/peachy-bytes-XXXXXX";
  const std::filesystem::path dir = ::mkdtemp(tmpl);
  EXPECT_THROW(read_file(dir), Error);
  EXPECT_EQ(read_file(dir / "missing"), std::nullopt);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace peachy::bytes

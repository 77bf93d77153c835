// core/bytes.hpp behaviour no format test reaches: the sealed frame's
// rejections and a failed commit. Scalars, strings, counts and the CRC are
// covered through every format by decoder_test and net_test.
#include "core/bytes.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>

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

}  // namespace
}  // namespace peachy::bytes

// Every decoder that sizes an allocation from a length field must check the
// count against the bytes actually present. Each case below hands one
// decoder a short, otherwise well-formed body whose count field claims
// 2^32 - 1 or more elements; the decoder has to throw peachy::Error
// (never std::bad_alloc or std::length_error, which the telemetry hub and
// the daemon do not catch).
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <iterator>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "dmr/job.hpp"
#include "mpp/checkpoint.hpp"
#include "mpp/telemetry.hpp"
#include "net/wire.hpp"
#include "sandpile/result_blob.hpp"
#include "svc/runner.hpp"

namespace peachy {
namespace {

constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

using Blob = std::vector<std::byte>;

void put_u64_at(Blob& blob, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    blob[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

// A count field followed by `body` bytes that cannot hold that many.
Blob u32_count_then_body(std::uint32_t count, std::size_t body) {
  Blob blob;
  net::append_u32(blob, count);
  blob.resize(blob.size() + body);
  return blob;
}

// A private directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/peachy-decoder-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void decode_lying_checkpoint() {
  const TempDir dir;
  mpp::save_checkpoint(dir.path, {1, {Blob(8)}});
  const std::filesystem::path path =
      std::filesystem::path(dir.path) / mpp::kCheckpointFile;
  Blob file;
  {
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> raw{std::istreambuf_iterator<char>(in), {}};
    file.resize(raw.size());
    std::memcpy(file.data(), raw.data(), raw.size());
  }
  // magic, version, world, epoch, then rank 0's u64 blob length. The CRC
  // is recomputed, so only the bounds check stands in the way. 2^64 - 1
  // wraps a `p + n` pointer check around to a value that passes.
  put_u64_at(file, 16, ~std::uint64_t{0});
  const std::uint32_t crc = net::crc32(file.data(), file.size() - 4);
  const std::size_t crc_at = file.size() - 4;
  for (int i = 0; i < 4; ++i)
    file[crc_at + i] = static_cast<std::byte>((crc >> (8 * i)) & 0xff);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));
  mpp::load_checkpoint(dir.path, 1);
}

void decode_lying_sandpile_result() {
  Blob blob = sandpile::detail::encode_result(sandpile::Field(2, 2), true, 1);
  Blob lying;
  net::append_u32(lying, 1u << 30);  // height
  net::append_u32(lying, 1u << 30);  // width
  lying.insert(lying.end(), blob.begin() + 8, blob.end());
  sandpile::detail::decode_result(lying);
}

void decode_lying_telemetry_snapshot() {
  Blob blob = mpp::telemetry::encode_snapshot(0, {}, {});
  put_u64_at(blob, 8, kHuge);  // after version and rank: the sample count
  mpp::telemetry::decode_snapshot(blob);
}

void decode_lying_dmr_job_result() {
  Blob blob;
  net::append_u32(blob, 0);  // aborted
  for (int i = 0; i < 11; ++i) net::append_u64(blob, 0);  // counters
  net::append_u32(blob, 1);      // partitions
  net::append_u64(blob, 0);      // records of partition 0
  net::append_u64(blob, kHuge);  // output count
  blob.resize(blob.size() + 8);
  dmr::detail::decode_result<std::string, std::uint64_t>(blob, 1);
}

struct LyingLength {
  const char* name;
  std::function<void()> decode;
};

// Keeps the discovered test names stable: gtest would otherwise print the
// struct's bytes, pointers included.
void PrintTo(const LyingLength& c, std::ostream* os) { *os << c.name; }

class DecoderBoundsTest : public ::testing::TestWithParam<LyingLength> {};

TEST_P(DecoderBoundsTest, LyingCountThrowsPeachyError) {
  EXPECT_THROW(GetParam().decode(), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, DecoderBoundsTest,
    ::testing::Values(
        LyingLength{"checkpoint", decode_lying_checkpoint},
        LyingLength{"sandpile_result", decode_lying_sandpile_result},
        LyingLength{"telemetry_snapshot", decode_lying_telemetry_snapshot},
        LyingLength{"svc_dmr_result",
                    [] { svc::decode_dmr_result(u32_count_then_body(~0u, 8)); }},
        LyingLength{"svc_wfsim_result",
                    [] {
                      svc::decode_wfsim_result(u32_count_then_body(~0u, 8));
                    }},
        LyingLength{"dmr_job_result", decode_lying_dmr_job_result}),
    [](const ::testing::TestParamInfo<LyingLength>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace peachy

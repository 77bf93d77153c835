#include "dmr/spill.hpp"

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "core/bytes.hpp"
#include "core/error.hpp"

namespace peachy::dmr {

namespace {

constexpr std::size_t kHeaderBytes = 20;

// Reads a record header into `rec`'s scalar fields and returns its key and
// value lengths. The one place the header layout is parsed.
std::pair<std::uint32_t, std::uint32_t> read_header(bytes::Reader& in,
                                                    RawRecord& rec) {
  rec.partition = in.u32();
  rec.task = in.u32();
  rec.seq = in.u32();
  const std::uint32_t key_len = in.u32();
  return {key_len, in.u32()};
}

bool read_exact(std::ifstream& is, void* dst, std::size_t n) {
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return is.gcount() == static_cast<std::streamsize>(n);
}

}  // namespace

void append_record(const RawRecord& rec, std::vector<std::byte>& out) {
  for (const std::uint32_t v :
       {rec.partition, rec.task, rec.seq,
        static_cast<std::uint32_t>(rec.key.size()),
        static_cast<std::uint32_t>(rec.value.size())})
    bytes::append_u32(out, v);
  out.insert(out.end(), rec.key.begin(), rec.key.end());
  out.insert(out.end(), rec.value.begin(), rec.value.end());
}

bool read_record(bytes::Reader& in, RawRecord& rec) {
  if (in.at_end()) return false;
  const auto [key_len, val_len] = read_header(in, rec);
  const std::span<const std::byte> key = in.take(key_len);
  const std::span<const std::byte> value = in.take(val_len);
  rec.key.assign(key.begin(), key.end());
  rec.value.assign(value.begin(), value.end());
  return true;
}

RunWriter::RunWriter(const std::string& path)
    : os_(path, std::ios::binary | std::ios::trunc), path_(path) {
  PEACHY_REQUIRE(os_.good(), "cannot create spill run " << path);
}

void RunWriter::write(const RawRecord& rec) {
  std::vector<std::byte> frame;
  append_record(rec, frame);
  os_.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  ++records_;
  bytes_ += frame.size();
}

void RunWriter::close() {
  os_.flush();
  PEACHY_REQUIRE(os_.good(), "spill run write failed: " << path_);
  os_.close();
}

RunReader::RunReader(const std::string& path)
    : is_(path, std::ios::binary | std::ios::ate), path_(path) {
  PEACHY_REQUIRE(is_.good(), "cannot open spill run " << path);
  left_ = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0, std::ios::beg);
}

bool RunReader::next(RawRecord& rec) {
  if (left_ == 0) return false;
  std::byte header[kHeaderBytes];
  PEACHY_REQUIRE(left_ >= kHeaderBytes && read_exact(is_, header, kHeaderBytes),
                 "spill run " << path_ << " torn mid-header");
  left_ -= kHeaderBytes;
  bytes::Reader in(header);
  const auto [key_len, val_len] = read_header(in, rec);
  // Bound both lengths by the file before allocating: a torn or corrupt
  // run must not ask for gigabytes.
  PEACHY_REQUIRE(std::uint64_t{key_len} + val_len <= left_,
                 "spill run " << path_ << " torn mid-record");
  rec.key.resize(key_len);
  rec.value.resize(val_len);
  PEACHY_REQUIRE(read_exact(is_, rec.key.data(), key_len) &&
                     read_exact(is_, rec.value.data(), val_len),
                 "spill run " << path_ << " short read");
  left_ -= std::uint64_t{key_len} + val_len;
  return true;
}

SpillDir::SpillDir(const std::string& hint) {
  if (!hint.empty()) {
    path_ = hint;
    std::filesystem::create_directories(path_);
    return;
  }
  char tmpl[] = "/tmp/peachy-dmr-XXXXXX";
  PEACHY_REQUIRE(::mkdtemp(tmpl) != nullptr,
                 "mkdtemp failed: " << std::strerror(errno));
  path_ = tmpl;
  owned_ = true;
}

SpillDir::~SpillDir() {
  if (owned_) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

std::string SpillDir::run_path(std::size_t n) const {
  return path_ + "/run-" + std::to_string(n) + ".spill";
}

}  // namespace peachy::dmr

#include "svc/queue.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>

#include "core/bytes.hpp"
#include "core/error.hpp"

namespace fs = std::filesystem;

namespace peachy::svc {

namespace {

// Record layout: a sealed frame (core/bytes.hpp, DESIGN.md "Byte formats")
//   u32 magic 'PSVJ' | u32 version | u64 id | u32 state | u32 restarts
//   | u64 peak_rss_bytes | spec (append_spec) | string error
//   | u64 result size | result bytes | u32 crc32 of everything above
constexpr std::uint32_t kMagic = 0x4a565350;  // "PSVJ"
// v2: spec grew isolation + deadline_ms (+ dmr fault_abort_at).
// v3: record grew peak_rss_bytes. Records from other versions are skipped
// at load like corrupt ones — the spec codec is shared with the wire
// protocol, so cross-version decode would misparse, and a job service
// retires records quickly anyway.
constexpr std::uint32_t kVersion = 3;

// A record that cannot be read or decoded counts as absent.
std::optional<JobRecord> load_record(const fs::path& path) {
  try {
    if (const auto buf = bytes::read_file(path)) return decode_record(*buf);
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

// The id of a committed record's file name, "job-<id>.rec"; nullopt for any
// other name, such as the "job-<id>.rec.tmp" a crash mid-commit leaves.
std::optional<std::uint64_t> record_id(const std::string& name) {
  std::uint64_t id = 0;
  int end = 0;
  if (std::sscanf(name.c_str(), "job-%" SCNu64 ".rec%n", &id, &end) != 1 ||
      static_cast<std::size_t>(end) != name.size())
    return std::nullopt;
  return id;
}

}  // namespace

std::vector<std::byte> encode_record(const JobRecord& rec) {
  std::vector<std::byte> buf = bytes::begin_sealed(kMagic, kVersion);
  bytes::append_u64(buf, rec.id);
  bytes::append_u32(buf, static_cast<std::uint32_t>(rec.state));
  bytes::append_u32(buf, rec.restarts);
  bytes::append_u64(buf, rec.peak_rss_bytes);
  append_spec(buf, rec.spec);
  bytes::append_string(buf, rec.error);
  bytes::append_blob(buf, rec.result);
  bytes::seal(buf);
  return buf;
}

JobRecord decode_record(std::span<const std::byte> buf) {
  bytes::Reader in = bytes::unseal(buf, kMagic, kVersion, "job record");
  JobRecord rec;
  rec.id = in.u64();
  rec.state = read_state(in);
  rec.restarts = in.u32();
  rec.peak_rss_bytes = in.u64();
  rec.spec = read_spec(in);
  rec.error = in.string();
  const std::span<const std::byte> result = in.blob();
  in.expect_end("job record");
  rec.result.assign(result.begin(), result.end());
  return rec;
}

JobStore::JobStore(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(fs::path(dir_) / "jobs");
  fs::create_directories(fs::path(dir_) / "ckpt");
  fs::create_directories(fs::path(dir_) / "flight");
  // Continue the id sequence after the largest committed record, corrupt or
  // not — ids must never be reused, even for jobs we can no longer decode.
  for (const auto& entry : fs::directory_iterator(fs::path(dir_) / "jobs")) {
    const std::string name = entry.path().filename().string();
    if (const auto id = record_id(name)) next_id_ = std::max(next_id_, *id + 1);
  }
}

std::uint64_t JobStore::allocate_id() { return next_id_++; }

std::string JobStore::record_path(std::uint64_t id) const {
  return (fs::path(dir_) / "jobs" / ("job-" + std::to_string(id) + ".rec"))
      .string();
}

std::string JobStore::checkpoint_dir(std::uint64_t id) const {
  return (fs::path(dir_) / "ckpt" / ("job-" + std::to_string(id))).string();
}

void JobStore::put(const JobRecord& rec) {
  const std::string committed = record_path(rec.id);
  bytes::commit_file(committed, committed + ".tmp", encode_record(rec));
}

std::optional<JobRecord> JobStore::get(std::uint64_t id) const {
  return load_record(record_path(id));
}

std::vector<JobRecord> JobStore::load_all() {
  corrupt_skipped_ = 0;
  std::vector<JobRecord> records;
  for (const auto& entry : fs::directory_iterator(fs::path(dir_) / "jobs")) {
    const std::string name = entry.path().filename().string();
    if (!record_id(name)) continue;
    if (auto rec = load_record(entry.path()))
      records.push_back(std::move(*rec));
    else
      ++corrupt_skipped_;
  }
  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  return records;
}

void JobStore::erase(std::uint64_t id) {
  std::error_code ec;
  fs::remove(record_path(id), ec);
}

void JobStore::remove_checkpoint(std::uint64_t id) {
  std::error_code ec;
  fs::remove_all(checkpoint_dir(id), ec);
}

std::string JobStore::flight_dir(std::uint64_t id) const {
  return (fs::path(dir_) / "flight" / ("job-" + std::to_string(id))).string();
}

void JobStore::remove_flight(std::uint64_t id) {
  std::error_code ec;
  fs::remove_all(flight_dir(id), ec);
}

}  // namespace peachy::svc

#include "mpp/checkpoint.hpp"

#include <pthread.h>
#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/error.hpp"
#include "core/timer.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"

namespace peachy::mpp {

namespace {

// File layout (little-endian, built on the net wire scalar helpers):
//   u32 magic 'PCKP' | u32 version | u32 world | u32 epoch
//   world x { u64 size | bytes }
//   u32 crc32 of everything above
constexpr std::uint32_t kMagic = 0x504b4350;  // "PCKP"
constexpr std::uint32_t kVersion = 1;

std::filesystem::path committed_path(const std::string& dir) {
  return std::filesystem::path(dir) / kCheckpointFile;
}

obs::Histogram& obs_write_ns() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("mpp.checkpoint_write_ns");
  return h;
}
obs::Counter& obs_wait_ns() {
  static obs::Counter& c =
      obs::Registry::global().counter("mpp.checkpoint_wait_ns");
  return c;
}

}  // namespace

void save_checkpoint(const std::string& dir, const CheckpointImage& image) {
  std::vector<std::byte> buf;
  net::append_u32(buf, kMagic);
  net::append_u32(buf, kVersion);
  net::append_u32(buf, static_cast<std::uint32_t>(image.blobs.size()));
  net::append_u32(buf, static_cast<std::uint32_t>(image.epoch));
  for (const auto& blob : image.blobs) {
    net::append_u64(buf, blob.size());
    net::append_bytes(buf, blob.data(), blob.size());
  }
  net::append_u32(buf, net::crc32(buf.data(), buf.size()));

  const std::filesystem::path tmp =
      std::filesystem::path(dir) / "ckpt.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PEACHY_REQUIRE(out, "cannot open checkpoint temp file " << tmp.string());
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    out.flush();
    PEACHY_REQUIRE(out, "short write to checkpoint file " << tmp.string());
  }
  // The commit point: readers see either the old image or the new one.
  std::error_code ec;
  std::filesystem::rename(tmp, committed_path(dir), ec);
  PEACHY_REQUIRE(!ec, "cannot commit checkpoint " << committed_path(dir).string()
                                                  << ": " << ec.message());
}

std::optional<CheckpointImage> load_checkpoint(const std::string& dir,
                                               int world) {
  const std::filesystem::path path = committed_path(dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // never checkpointed (or dir wiped) — fine
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> buf(static_cast<std::size_t>(len > 0 ? len : 0));
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  PEACHY_REQUIRE(in.gcount() == static_cast<std::streamsize>(buf.size()),
                 "short read from checkpoint " << path.string());

  PEACHY_REQUIRE(buf.size() >= 20,
                 "checkpoint " << path.string() << " is truncated ("
                               << buf.size() << " bytes)");
  const std::byte* p = buf.data();
  const std::byte* crc_end = buf.data() + buf.size() - 4;
  const std::byte* end = buf.data() + buf.size();

  // Verify the trailing CRC over everything before it, first — every other
  // field is untrustworthy until this passes.
  {
    const std::byte* q = crc_end;
    const std::uint32_t stored = net::read_u32(q, end);
    const std::uint32_t actual =
        net::crc32(buf.data(), static_cast<std::size_t>(crc_end - buf.data()));
    PEACHY_REQUIRE(stored == actual,
                   "checkpoint " << path.string() << " is corrupt: crc "
                                 << actual << " != stored " << stored);
  }

  PEACHY_REQUIRE(net::read_u32(p, crc_end) == kMagic,
                 "checkpoint " << path.string() << " has bad magic");
  const std::uint32_t version = net::read_u32(p, crc_end);
  PEACHY_REQUIRE(version == kVersion,
                 "checkpoint " << path.string() << " has version " << version
                               << ", this build reads " << kVersion);
  const std::uint32_t file_world = net::read_u32(p, crc_end);
  PEACHY_REQUIRE(file_world == static_cast<std::uint32_t>(world),
                 "checkpoint " << path.string() << " was written by a world of "
                               << file_world << " ranks, not " << world);

  CheckpointImage image;
  image.epoch = static_cast<int>(net::read_u32(p, crc_end));
  image.blobs.resize(file_world);
  for (auto& blob : image.blobs) {
    const std::uint64_t n = net::read_u64(p, crc_end);
    PEACHY_REQUIRE(n <= static_cast<std::uint64_t>(crc_end - p),
                   "checkpoint " << path.string()
                                 << " is truncated inside a rank blob");
    blob.assign(p, p + n);
    p += n;
  }
  PEACHY_REQUIRE(p == crc_end, "checkpoint " << path.string()
                                             << " has trailing garbage");
  return image;
}

CheckpointWriter::CheckpointWriter(std::string dir, Collect collect)
    : dir_(std::move(dir)),
      collect_(std::move(collect)),
      thread_([this] { run(); }) {}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();  // run() writes a still-queued image before it returns
  if (!error_.empty())
    std::fprintf(stderr, "peachy mpp: %s (never drained)\n", error_.c_str());
}

std::string CheckpointWriter::wait_idle(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [this] { return !busy_; });
  return std::exchange(error_, std::string());
}

void CheckpointWriter::submit(CheckpointImage image) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    const std::int64_t t0 = now_ns();
    const std::string error = wait_idle(lock);
    if (obs::enabled())
      obs_wait_ns().add(static_cast<std::uint64_t>(now_ns() - t0));
    if (!error.empty()) throw Error(error);
    queued_ = std::move(image);
    busy_ = true;
  }
  cv_.notify_all();
}

void CheckpointWriter::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::string error = wait_idle(lock);
  if (!error.empty()) throw Error(error);
}

void CheckpointWriter::run() {
  {
    // SCHED_BATCH: a woken writer does not preempt the thread that woke
    // it. Otherwise the write tends to run on the submitting rank's core
    // while the rank, which every other rank waits for, sits runnable
    // behind it. If the kernel refuses, the default policy is merely
    // slower, so the result is not checked.
    sched_param param{};
    ::pthread_setschedparam(::pthread_self(), SCHED_BATCH, &param);
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || queued_.has_value(); });
    if (!queued_) return;  // stop_ with nothing left to write
    CheckpointImage image = std::move(*queued_);
    queued_.reset();
    lock.unlock();
    std::string error;
    try {
      if (collect_) collect_(image);
      obs::Span span("mpp.checkpoint_write", "mpp");
      span.arg("epoch", image.epoch);
      const std::int64_t t0 = now_ns();
      save_checkpoint(dir_, image);
      if (obs::enabled()) obs_write_ns().observe(now_ns() - t0);
    } catch (const std::exception& e) {
      error = "checkpoint epoch " + std::to_string(image.epoch) +
              " was not committed: " + e.what();
    } catch (...) {
      error = "checkpoint epoch " + std::to_string(image.epoch) +
              " was not committed: unknown error";
    }
    lock.lock();
    error_ = std::move(error);
    busy_ = false;
    cv_.notify_all();
  }
}

}  // namespace peachy::mpp

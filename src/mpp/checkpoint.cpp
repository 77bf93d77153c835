#include "mpp/checkpoint.hpp"

#include <pthread.h>
#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "core/timer.hpp"
#include "obs/obs.hpp"

namespace peachy::mpp {

namespace {

// File layout: a sealed frame (core/bytes.hpp, DESIGN.md "Byte formats")
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

std::vector<std::byte> encode_checkpoint(const CheckpointImage& image) {
  std::vector<std::byte> buf = bytes::begin_sealed(kMagic, kVersion);
  bytes::append_u32(buf, static_cast<std::uint32_t>(image.blobs.size()));
  bytes::append_u32(buf, static_cast<std::uint32_t>(image.epoch));
  for (const auto& blob : image.blobs) bytes::append_blob(buf, blob);
  bytes::seal(buf);
  return buf;
}

CheckpointImage decode_checkpoint(std::span<const std::byte> file, int world,
                                  const std::string& name) {
  bytes::Reader in = bytes::unseal(file, kMagic, kVersion, name);
  const std::uint32_t file_world = in.u32();
  PEACHY_REQUIRE(file_world == static_cast<std::uint32_t>(world),
                 name << " was written by a world of " << file_world
                      << " ranks, not " << world);
  CheckpointImage image;
  image.epoch = static_cast<int>(in.u32());
  image.blobs.resize(in.count(file_world, 8));
  for (auto& blob : image.blobs) {
    const std::span<const std::byte> b = in.blob();
    blob.assign(b.begin(), b.end());
  }
  in.expect_end(name);
  return image;
}

void save_checkpoint(const std::string& dir, const CheckpointImage& image) {
  bytes::commit_file(committed_path(dir),
                     std::filesystem::path(dir) / "ckpt.tmp",
                     encode_checkpoint(image));
}

std::optional<CheckpointImage> load_checkpoint(const std::string& dir,
                                               int world) {
  const std::filesystem::path path = committed_path(dir);
  // No file: never checkpointed (or the directory was wiped) — fine.
  const auto file = bytes::read_file(path);
  if (!file) return std::nullopt;
  return decode_checkpoint(*file, world, "checkpoint " + path.string());
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

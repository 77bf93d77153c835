// Durable world checkpoints for the mpp runtime.
//
// A checkpoint is one file holding every rank's opaque state blob plus the
// epoch that produced it. Rank 0 is the only writer: Comm::checkpoint()
// funnels all blobs to rank 0, where a CheckpointWriter — one background
// thread per Comm — receives them and commits the image with the classic
// write-to-temp + atomic-rename protocol while the ranks carry on
// computing. A checkpoint either exists completely (rename happened) or
// not at all (a crash mid-write leaves only the temp file, which the next
// load ignores). The file is a sealed frame (core/bytes.hpp) whose CRC32
// rejects a torn or tampered file loudly instead of restoring garbage
// state into every rank.
//
// Durability contract: at most one write is in flight, so the committed
// ckpt.bin lags the latest cut by at most one. The in-flight write is
// drained (its failure rethrown) by the next cut, by restore(), and by the
// world launchers at every body exit — only a SIGKILL of rank 0 mid-write
// can leave the previous image committed, and recovery then replays one
// more interval of (deterministic) work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace peachy::mpp {

/// Everything needed to restart a world: the epoch counter and one state
/// blob per rank (indexed by rank; blobs may be empty).
struct CheckpointImage {
  int epoch = 0;
  std::vector<std::vector<std::byte>> blobs;
};

/// Name of the committed checkpoint file inside a checkpoint directory.
inline constexpr const char* kCheckpointFile = "ckpt.bin";

/// The ckpt.bin image of `image` (DESIGN.md "Byte formats").
std::vector<std::byte> encode_checkpoint(const CheckpointImage& image);

/// Parses a ckpt.bin image; throws peachy::Error when it is corrupt or was
/// written by a world of a size other than `world`. `name` labels errors.
CheckpointImage decode_checkpoint(std::span<const std::byte> file, int world,
                                  const std::string& name = "checkpoint");

/// Atomically commits `image` as `dir/ckpt.bin`. Throws peachy::Error on
/// I/O failure; on success the previous checkpoint is replaced as a unit.
void save_checkpoint(const std::string& dir, const CheckpointImage& image);

/// Loads the committed checkpoint, or nullopt when none has ever been
/// committed. Throws peachy::Error on a corrupt file or when the file was
/// written by a world of a different size than `world`.
std::optional<CheckpointImage> load_checkpoint(const std::string& dir,
                                               int world);

/// Runs save_checkpoint() on one background thread, started by the
/// constructor and joined by the destructor. Double-buffered: one image
/// can be on its way to disk while the caller assembles the next, and
/// submit() waits for the previous write before queueing another, so at
/// most one write is ever in flight. A failed write is kept and rethrown
/// as peachy::Error by the next submit() or drain() — exactly once.
class CheckpointWriter {
 public:
  /// Completes a submitted image on the writer thread, before the save:
  /// Comm receives the other ranks' blobs here, so rank 0 does not wait
  /// for them at the cut. An exception fails the write like an I/O error.
  using Collect = std::function<void(CheckpointImage&)>;

  explicit CheckpointWriter(std::string dir, Collect collect = {});
  /// Finishes the in-flight write and joins the thread. A failure nobody
  /// drained can only be logged to stderr here (destructors must not
  /// throw); the mpp launchers drain explicitly at every body exit.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Waits for the previous write (rethrowing its failure), then queues
  /// `image` for the writer thread and returns without touching the disk
  /// or the collect step.
  void submit(CheckpointImage image);

  /// Blocks until no write (collect included) is in flight; rethrows a
  /// failed write's error.
  void drain();

 private:
  void run();
  /// Waits for the in-flight write; returns (and clears) its error text.
  std::string wait_idle(std::unique_lock<std::mutex>& lock);

  const std::string dir_;
  const Collect collect_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<CheckpointImage> queued_;
  bool busy_ = false;  ///< an image is queued or being written
  bool stop_ = false;
  std::string error_;  ///< failure of the last write, until reported
  std::thread thread_;
};

}  // namespace peachy::mpp

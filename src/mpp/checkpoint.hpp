// Durable world checkpoints for the mpp runtime: one pair of files per rank.
//
// At a cut every rank commits its own state blob, with the epoch that
// produced it, on its own thread: no blob crosses the network and no rank
// waits for another. The commit overwrites the rank's spare file
// `rank-<r>.tmp` in place and swaps it with `rank-<r>.ckpt` in one
// renameat2(RENAME_EXCHANGE), so the committed file is never torn and the
// previous epoch becomes the spare the next cut overwrites. After the
// first two cuts no inode is created or freed. Each file is a sealed frame
// (core/bytes.hpp) whose CRC32 rejects a torn or tampered file instead of
// restoring garbage state.
//
// A world's checkpoint is the newest epoch that every rank holds, in its
// committed file or its spare (choose_epoch). A rank killed mid-cut holds
// the previous epoch only, so the world restores that one and replays one
// interval of deterministic work. Epochs are never mixed across ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace peachy::mpp {

/// Everything needed to restart a world: the epoch counter and one state
/// blob per rank (indexed by rank; blobs may be empty).
struct CheckpointImage {
  int epoch = 0;
  std::vector<std::vector<std::byte>> blobs;
};

/// One rank's checkpoint file, decoded.
struct RankCheckpoint {
  int epoch = 0;
  std::vector<std::byte> blob;
};

/// `dir/rank-<r>.ckpt`, the rank's committed file, and `dir/rank-<r>.tmp`,
/// its spare.
std::filesystem::path rank_checkpoint_path(const std::string& dir, int rank);
std::filesystem::path rank_spare_path(const std::string& dir, int rank);

/// The rank-<r>.ckpt image of one rank's blob (DESIGN.md "Byte formats").
std::vector<std::byte> encode_rank_checkpoint(int world, int rank, int epoch,
                                              std::span<const std::byte> blob);

/// Parses a rank-<r>.ckpt image; throws peachy::Error when it is corrupt or
/// was written by another rank or a world of another size. `name` labels
/// errors.
RankCheckpoint decode_rank_checkpoint(std::span<const std::byte> file,
                                      int world, int rank,
                                      const std::string& name = "checkpoint");

/// Commits `blob` as `rank`'s epoch `epoch`: writes the spare in place and
/// exchanges it with the committed file. With `keep_previous` false (a
/// world's first cut) both files of an earlier run are removed first and
/// the spare is renamed into place, so none of them survives even a crash
/// mid-cut. Throws peachy::Error when the epoch was not committed; with
/// `keep_previous` the committed file is then unchanged.
void commit_rank_checkpoint(const std::string& dir, int world, int rank,
                            int epoch, std::span<const std::byte> blob,
                            bool keep_previous);

/// The newest epoch held by every rank, from (committed, spare) epoch
/// pairs concatenated in rank order, 0 standing for a missing or torn
/// file. 0 when no epoch is common to all ranks; -1 when any rank sent -1,
/// which a rank whose committed file is unreadable does.
std::int64_t choose_epoch(std::span<const std::int64_t> epochs);

/// One rank's side of a world restore: reads the rank's committed file and
/// spare, agrees on an epoch through `agree` (which collects every rank's
/// (committed, spare) epochs and returns their choose_epoch() on every
/// rank), and returns the rank's copy of it, or nullopt when no epoch is
/// common to all ranks. No file newer than the agreed epoch survives: a
/// spare holding it is renamed over the committed file and a newer spare is
/// removed; with nothing agreed both files are removed. Throws
/// peachy::Error on every rank when any rank's committed file is corrupt or
/// was written by another world.
std::optional<RankCheckpoint> restore_rank_checkpoint(
    const std::string& dir, int world, int rank,
    const std::function<std::int64_t(std::span<const std::int64_t>)>& agree);

/// Commits every rank's blob of `image`, as each rank's cut would. Throws
/// peachy::Error on I/O failure.
void save_checkpoint(const std::string& dir, const CheckpointImage& image);

/// The world's checkpoint: every rank's blob of the newest epoch all ranks
/// hold, or nullopt when there is none. Reads only. Throws peachy::Error
/// when a committed file is corrupt or was written by another world.
std::optional<CheckpointImage> load_checkpoint(const std::string& dir,
                                               int world);

}  // namespace peachy::mpp

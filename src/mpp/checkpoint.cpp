#include "mpp/checkpoint.hpp"

#include <fcntl.h>
#include <stdio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "core/bytes.hpp"
#include "core/error.hpp"

namespace peachy::mpp {

namespace {

// File layout: a sealed frame (core/bytes.hpp, DESIGN.md "Byte formats")
//   u32 magic 'PCKR' | u32 version | u32 world | u32 rank | u32 epoch
//   u64 size | bytes
//   u32 crc32 of everything above
constexpr std::uint32_t kMagic = 0x524b4350;  // "PCKR"
constexpr std::uint32_t kVersion = 1;

// Overwrites `path` with `data`, keeping its inode; a crash midway leaves a
// torn file, which its CRC rejects. A short write means a full disk (signals
// do not cut regular-file writes short) and fails like any other error.
void write_in_place(const std::filesystem::path& path,
                    std::span<const std::byte> data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  PEACHY_REQUIRE(fd >= 0, "cannot open " << path.string() << ": "
                                         << std::strerror(errno));
  errno = 0;
  const bool written =
      ::pwrite(fd, data.data(), data.size(), 0) ==
          static_cast<ssize_t>(data.size()) &&
      ::ftruncate(fd, static_cast<off_t>(data.size())) == 0;
  const int error = errno != 0 ? errno : ENOSPC;
  ::close(fd);
  PEACHY_REQUIRE(written, "cannot write " << path.string() << ": "
                                          << std::strerror(error));
}

void remove_file(const std::filesystem::path& path) {
  PEACHY_REQUIRE(::unlink(path.c_str()) == 0 || errno == ENOENT,
                 "cannot remove " << path.string() << ": "
                                  << std::strerror(errno));
}

void rename_over(const std::filesystem::path& from,
                 const std::filesystem::path& to) {
  PEACHY_REQUIRE(::rename(from.c_str(), to.c_str()) == 0,
                 "cannot rename " << from.string() << " over " << to.string()
                                  << ": " << std::strerror(errno));
}

// What one rank holds on disk.
struct RankFiles {
  std::optional<RankCheckpoint> committed;
  std::optional<RankCheckpoint> spare;
};

std::int64_t epoch_of(const std::optional<RankCheckpoint>& file) {
  return file ? file->epoch : 0;
}

// A missing committed file is fine; a corrupt one throws peachy::Error. A
// spare that is missing, torn or unreadable is ignored.
RankFiles read_rank_files(const std::string& dir, int world, int rank) {
  RankFiles files;
  const std::filesystem::path committed = rank_checkpoint_path(dir, rank);
  if (const auto file = bytes::read_file(committed))
    files.committed = decode_rank_checkpoint(
        *file, world, rank, "checkpoint " + committed.string());
  try {
    if (const auto file = bytes::read_file(rank_spare_path(dir, rank)))
      files.spare = decode_rank_checkpoint(*file, world, rank);
  } catch (const std::exception&) {
    // Torn by a cut that never finished, or unreadable: the committed file
    // stands.
  }
  return files;
}

void remove_rank_files(const std::string& dir, int rank) {
  remove_file(rank_checkpoint_path(dir, rank));
  remove_file(rank_spare_path(dir, rank));
}

// The copy of `epoch`, which choose_epoch() found the rank to hold: the
// committed file's or the spare's.
RankCheckpoint& held(RankFiles& files, std::int64_t epoch) {
  return epoch_of(files.committed) == epoch ? *files.committed
                                             : files.spare.value();
}

}  // namespace

std::filesystem::path rank_checkpoint_path(const std::string& dir, int rank) {
  return std::filesystem::path(dir) /
         ("rank-" + std::to_string(rank) + ".ckpt");
}

std::filesystem::path rank_spare_path(const std::string& dir, int rank) {
  return std::filesystem::path(dir) /
         ("rank-" + std::to_string(rank) + ".tmp");
}

std::vector<std::byte> encode_rank_checkpoint(int world, int rank, int epoch,
                                              std::span<const std::byte> blob) {
  std::vector<std::byte> buf = bytes::begin_sealed(kMagic, kVersion);
  bytes::append_u32(buf, static_cast<std::uint32_t>(world));
  bytes::append_u32(buf, static_cast<std::uint32_t>(rank));
  bytes::append_u32(buf, static_cast<std::uint32_t>(epoch));
  bytes::append_blob(buf, blob);
  bytes::seal(buf);
  return buf;
}

RankCheckpoint decode_rank_checkpoint(std::span<const std::byte> file,
                                      int world, int rank,
                                      const std::string& name) {
  bytes::Reader in = bytes::unseal(file, kMagic, kVersion, name);
  const std::uint32_t file_world = in.u32();
  PEACHY_REQUIRE(file_world == static_cast<std::uint32_t>(world),
                 name << " was written by a world of " << file_world
                      << " ranks, not " << world);
  const std::uint32_t file_rank = in.u32();
  PEACHY_REQUIRE(file_rank == static_cast<std::uint32_t>(rank),
                 name << " holds rank " << file_rank << ", not " << rank);
  RankCheckpoint out;
  out.epoch = static_cast<int>(in.u32());
  const std::span<const std::byte> blob = in.blob();
  in.expect_end(name);
  out.blob.assign(blob.begin(), blob.end());
  return out;
}

void commit_rank_checkpoint(const std::string& dir, int world, int rank,
                            int epoch, std::span<const std::byte> blob,
                            bool keep_previous) {
  const std::filesystem::path committed = rank_checkpoint_path(dir, rank);
  const std::filesystem::path spare = rank_spare_path(dir, rank);
  try {
    // A fresh chain first removes an earlier run's files, so a rank killed
    // during this cut cannot leave one of them to pair with this run's.
    if (!keep_previous) remove_rank_files(dir, rank);
    write_in_place(spare, encode_rank_checkpoint(world, rank, epoch, blob));
    if (::renameat2(AT_FDCWD, spare.c_str(), AT_FDCWD, committed.c_str(),
                    RENAME_EXCHANGE) == 0)
      return;
    // A filesystem without exchange (EINVAL) or a rank with nothing
    // committed (ENOENT, as on a fresh chain) renames over instead.
    PEACHY_REQUIRE(errno == EINVAL || errno == ENOENT,
                   "cannot exchange " << spare.string() << " with "
                                      << committed.string() << ": "
                                      << std::strerror(errno));
    rename_over(spare, committed);
  } catch (const Error& e) {
    throw Error("checkpoint epoch " + std::to_string(epoch) + " of rank " +
                std::to_string(rank) + " was not committed: " + e.what());
  }
}

std::int64_t choose_epoch(std::span<const std::int64_t> epochs) {
  if (std::find(epochs.begin(), epochs.end(), -1) != epochs.end()) return -1;
  std::int64_t best = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(epochs.size(), 2); ++i) {
    const std::int64_t epoch = epochs[i];
    bool everywhere = epoch > best;
    for (std::size_t r = 0; everywhere && r + 1 < epochs.size(); r += 2)
      everywhere = epochs[r] == epoch || epochs[r + 1] == epoch;
    if (everywhere) best = epoch;
  }
  return best;
}

std::optional<RankCheckpoint> restore_rank_checkpoint(
    const std::string& dir, int world, int rank,
    const std::function<std::int64_t(std::span<const std::int64_t>)>& agree) {
  // A rank that cannot read its committed file still takes part, sending
  // -1, so that every rank throws instead of waiting for it.
  RankFiles files;
  std::exception_ptr error;
  try {
    files = read_rank_files(dir, world, rank);
  } catch (...) {
    error = std::current_exception();
  }
  const std::int64_t mine[2] = {error ? -1 : epoch_of(files.committed),
                                error ? -1 : epoch_of(files.spare)};
  const std::int64_t epoch = agree(mine);
  if (error) std::rethrow_exception(error);
  PEACHY_REQUIRE(epoch >= 0, "rank " << rank
                                     << ": restore failed: another rank's "
                                        "checkpoint could not be read");
  if (epoch == 0) {
    remove_rank_files(dir, rank);
    return std::nullopt;
  }
  const std::filesystem::path spare = rank_spare_path(dir, rank);
  if (epoch_of(files.committed) != epoch)
    rename_over(spare, rank_checkpoint_path(dir, rank));
  else if (epoch_of(files.spare) > epoch)
    remove_file(spare);
  return std::move(held(files, epoch));
}

void save_checkpoint(const std::string& dir, const CheckpointImage& image) {
  const int world = static_cast<int>(image.blobs.size());
  for (int r = 0; r < world; ++r)
    commit_rank_checkpoint(dir, world, r, image.epoch,
                           image.blobs[static_cast<std::size_t>(r)],
                           /*keep_previous=*/true);
}

std::optional<CheckpointImage> load_checkpoint(const std::string& dir,
                                               int world) {
  std::vector<RankFiles> files;
  std::vector<std::int64_t> epochs;
  for (int r = 0; r < world; ++r) {
    files.push_back(read_rank_files(dir, world, r));
    epochs.push_back(epoch_of(files.back().committed));
    epochs.push_back(epoch_of(files.back().spare));
  }
  const int epoch = static_cast<int>(choose_epoch(epochs));
  if (epoch == 0) return std::nullopt;
  CheckpointImage image;
  image.epoch = epoch;
  for (RankFiles& f : files)
    image.blobs.push_back(std::move(held(f, epoch).blob));
  return image;
}

}  // namespace peachy::mpp

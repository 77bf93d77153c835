// Serialization of a distributed stabilization's outcome into the rank-0
// result blob (mpp::Comm::set_result). Inside a thread world this is a
// round-trip through a vector; inside a spawned world it is the only road
// home — rank 0's worker process sends these bytes to the launcher over its
// rendezvous connection.
#pragma once

#include <cstddef>
#include <vector>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "sandpile/field.hpp"

namespace peachy::sandpile::detail {

struct ResultBlob {
  Field field{1, 1};
  bool stable = false;
  bool aborted = false;
  int rounds = 0;
};

/// The status byte: 0 = ran out of rounds, 1 = globally stable, 2 = the
/// run was aborted (DistributedOptions::should_abort fired).
inline std::vector<std::byte> encode_result(const Field& field, bool stable,
                                            int rounds, bool aborted = false) {
  const int H = field.height(), W = field.width();
  std::vector<std::byte> blob;
  blob.reserve(13 + static_cast<std::size_t>(H) * W * sizeof(Cell));
  bytes::append_u32(blob, static_cast<std::uint32_t>(H));
  bytes::append_u32(blob, static_cast<std::uint32_t>(W));
  bytes::append_u32(blob, static_cast<std::uint32_t>(rounds));
  blob.push_back(static_cast<std::byte>(aborted ? 2 : (stable ? 1 : 0)));
  for (int y = 0; y < H; ++y)
    for (int x = 0; x < W; ++x) bytes::append_u32(blob, field.at(y, x));
  return blob;
}

inline ResultBlob decode_result(const std::vector<std::byte>& blob) {
  bytes::Reader in(blob);
  ResultBlob r;
  const std::uint32_t H = in.u32();
  const std::uint32_t W = in.u32();
  r.rounds = static_cast<int>(in.u32());
  const int status = in.u8();
  r.stable = status == 1;
  r.aborted = status == 2;
  PEACHY_REQUIRE(H >= 1 && W >= 1,
                 "sandpile result blob is " << H << "x" << W);
  in.count(std::uint64_t{H} * W, sizeof(Cell));
  r.field = Field(static_cast<int>(H), static_cast<int>(W));
  for (int y = 0; y < r.field.height(); ++y)
    for (int x = 0; x < r.field.width(); ++x)
      r.field.at(y, x) = static_cast<Cell>(in.u32());
  return r;
}

// --- Per-rank checkpoint slabs --------------------------------------------
// What one rank saves through mpp::Comm::checkpoint: the exchange round it
// completed plus its entire local buffer (owned cells, halos, and sink
// padding). Checkpoints are taken right after the termination allreduce, so
// every rank's slab describes the same global round — restoring the set and
// re-entering the loop continues the deterministic run exactly where the
// failed attempt stood.

struct SlabBlob {
  int round = 0;
  Grid2D<Cell> grid;
};

inline std::vector<std::byte> encode_slab(int round, const Grid2D<Cell>& grid) {
  std::vector<std::byte> blob;
  blob.reserve(12 + grid.size() * sizeof(Cell));
  bytes::append_u32(blob, static_cast<std::uint32_t>(round));
  bytes::append_u32(blob, static_cast<std::uint32_t>(grid.height()));
  bytes::append_u32(blob, static_cast<std::uint32_t>(grid.width()));
  for (std::size_t i = 0; i < grid.size(); ++i)
    bytes::append_u32(blob, grid.data()[i]);
  return blob;
}

/// `rows` x `cols` is the geometry this rank expects — a slab saved under a
/// different decomposition must fail loudly, not restore into the wrong shape.
inline SlabBlob decode_slab(const std::vector<std::byte>& blob, int rows,
                            int cols) {
  bytes::Reader in(blob);
  SlabBlob s;
  s.round = static_cast<int>(in.u32());
  const int h = static_cast<int>(in.u32());
  const int w = static_cast<int>(in.u32());
  PEACHY_REQUIRE(h == rows && w == cols,
                 "checkpoint slab is " << h << "x" << w << ", this rank needs "
                                       << rows << "x" << cols);
  s.grid = Grid2D<Cell>(h, w, 0);
  for (std::size_t i = 0; i < s.grid.size(); ++i)
    s.grid.data()[i] = static_cast<Cell>(in.u32());
  in.expect_end("checkpoint slab");
  return s;
}

}  // namespace peachy::sandpile::detail

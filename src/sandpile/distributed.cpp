#include "sandpile/distributed.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sandpile/result_blob.hpp"

namespace peachy::sandpile {

namespace {

// One rank's block of the Py x Px process grid, stored with a k-deep ghost
// ring: local cell (r, c) holds global interior cell (rlo - k + r,
// clo - k + c). Ring cells mapping outside the grid are global sinks and
// stay zero forever.
struct Block {
  int rlo, rhi;  // owned global rows [rlo, rhi)
  int clo, chi;  // owned global cols [clo, chi)
  int k;         // halo depth

  Block(int rank, int Py, int Px, int H, int W, int depth)
      : rlo(rank / Px * H / Py), rhi((rank / Px + 1) * H / Py),
        clo(rank % Px * W / Px), chi((rank % Px + 1) * W / Px), k(depth) {}

  int rows() const { return rhi - rlo; }
  int cols() const { return chi - clo; }
  int local_rows() const { return rows() + 2 * k; }
  int local_cols() const { return cols() + 2 * k; }
};

// The termination verdict runs every kVerdictEvery rounds (plus at
// checkpoint rounds and at max_rounds). In between, ranks only exchange
// halos and compute: a fixed point stays fixed, so the up to
// kVerdictEvery - 1 rounds run past stability change nothing.
constexpr int kVerdictEvery = 4;
// The abort value of the verdict all-reduce: far above any round, so it
// dominates every rank's last-changed round.
constexpr std::int64_t kAbort = std::int64_t{1} << 62;

}  // namespace

DistributedResult stabilize_distributed(const Field& initial,
                                        const DistributedOptions& options) {
  const int H = initial.height(), W = initial.width();
  const int R = options.ranks, Px = options.ranks_x, k = options.halo_depth;
  PEACHY_REQUIRE(R >= 1, "need >= 1 rank, got " << R);
  PEACHY_REQUIRE(Px >= 1 && R % Px == 0,
                 "ranks_x must be >= 1 and divide ranks (" << R << " % " << Px
                                                           << ")");
  PEACHY_REQUIRE(k >= 1, "halo depth must be >= 1, got " << k);
  const int Py = R / Px;
  PEACHY_REQUIRE(H >= Py && W >= Px, "grid " << H << "x" << W
                                             << " too small for " << Py << "x"
                                             << Px << " ranks");
  // A strip of k rows (columns) must come from the neighbour's own block.
  PEACHY_REQUIRE((Py == 1 || k <= H / Py) && (Px == 1 || k <= W / Px),
                 "halo depth " << k << " exceeds the smallest block of a "
                               << H << "x" << W << " grid on " << Py << "x"
                               << Px << " ranks");

  // Rank 0 ships the gathered field home as a result blob — worker ranks
  // may be separate processes, so nothing is written through captures.
  const mpp::RunOutcome outcome = mpp::run_world(R, options.run, [&](
                                                     mpp::Comm& comm) {
    const int rank = comm.rank();
    const Block blk(rank, Py, Px, H, W, k);
    const int LR = blk.local_rows(), LC = blk.local_cols();
    Grid2D<Cell> cur(LR, LC, 0);
    // Load owned + initially known ghost cells from the initial field.
    const int r_first = std::max(0, k - blk.rlo);
    const int r_last = std::min(LR, k - blk.rlo + H);
    const int c_first = std::max(0, k - blk.clo);
    const int c_last = std::min(LC, k - blk.clo + W);
    for (int r = r_first; r < r_last; ++r)
      for (int c = c_first; c < c_last; ++c)
        cur(r, c) = initial.at(blk.rlo - k + r, blk.clo - k + c);

    const int north = rank >= Px ? rank - Px : -1;
    const int south = rank + Px < R ? rank + Px : -1;
    const int west = rank % Px > 0 ? rank - 1 : -1;
    const int east = rank % Px < Px - 1 ? rank + 1 : -1;
    // Tags name the direction the data travels.
    constexpr int kTagSouth = 1, kTagNorth = 2, kTagEast = 3, kTagWest = 4;
    const std::size_t row_strip = static_cast<std::size_t>(LC) * k;
    // Column strips are k cells of every owned row, packed row by row.
    std::vector<Cell> col_out(static_cast<std::size_t>(blk.rows()) * k);
    std::vector<Cell> col_in(col_out.size());
    const auto pack_cols = [&](int c0) {
      for (int i = 0; i < blk.rows(); ++i)
        std::copy_n(cur.row(k + i) + c0, k, col_out.data() + i * k);
    };
    const auto unpack_cols = [&](int c0) {
      for (int i = 0; i < blk.rows(); ++i)
        std::copy_n(col_in.data() + i * k, k, cur.row(k + i) + c0);
    };

    bool globally_stable = false;
    bool aborted = false;
    int round = 0;
    // The last round in which this rank's owned cells changed (0 = none).
    std::int64_t last_changed = 0;
    // Resume from the last committed checkpoint, if any: each rank gets its
    // own slab back and the loop continues at the recorded round. A cut is
    // only taken after a "still changing" verdict, so the world's last
    // change is exactly the restored round.
    if (comm.checkpointing()) {
      if (auto blob = comm.restore()) {
        detail::SlabBlob slab = detail::decode_slab(*blob, LR, LC);
        round = slab.round;
        last_changed = round;
        cur = std::move(slab.grid);
      }
    }
    const bool checkpoints =
        options.checkpoint_every > 0 && comm.checkpointing();
    Grid2D<Cell> next = cur;
    for (;;) {
      if (options.max_rounds > 0 && round >= options.max_rounds) break;

      // --- Halo exchange (mpp sends never block, so send-then-recv is
      // deadlock-free in any order). Columns first, over the owned rows;
      // then full-width rows, which carry the halo columns just received
      // and with them the corners the stencil needs once k >= 2.
      {
        obs::Span exchange("sandpile.ghost_exchange", "sandpile");
        exchange.arg("rank", rank);
        exchange.arg("round", round);
        if (west >= 0) {
          pack_cols(k);
          comm.send(west, kTagWest, std::as_bytes(std::span(col_out)));
        }
        if (east >= 0) {
          pack_cols(blk.cols());
          comm.send(east, kTagEast, std::as_bytes(std::span(col_out)));
        }
        if (west >= 0) {
          comm.recv(west, kTagEast, col_in.data(), col_in.size());
          unpack_cols(0);
        }
        if (east >= 0) {
          comm.recv(east, kTagWest, col_in.data(), col_in.size());
          unpack_cols(blk.cols() + k);
        }
        // Full-width row strips are contiguous in the grid, so they leave
        // as byte views over it (no packing step, unlike the columns).
        if (north >= 0)
          comm.send(north, kTagNorth,
                    std::as_bytes(std::span(cur.row(k), row_strip)));
        if (south >= 0)
          comm.send(south, kTagSouth,
                    std::as_bytes(std::span(cur.row(blk.rows()), row_strip)));
        if (north >= 0) comm.recv(north, kTagSouth, cur.row(0), row_strip);
        if (south >= 0)
          comm.recv(south, kTagNorth, cur.row(blk.rows() + k), row_strip);
      }

      // --- k synchronous sub-iterations on a band shrinking in both axes,
      // clipped to the global grid. Only owned cells count as changes; they
      // are compared after each row rather than inside the stencil loop,
      // which keeps that loop branch-free so it vectorizes.
      bool changed_owned = false;
      for (int j = 0; j < k; ++j) {
        const int r0 = std::max(j + 1, r_first);
        const int r1 = std::min(LR - j - 1, r_last);
        const int c0 = std::max(j + 1, c_first);
        const int c1 = std::min(LC - j - 1, c_last);
        for (int r = r0; r < r1; ++r) {
          const Cell* up = cur.row(r - 1);
          const Cell* mid = cur.row(r);
          const Cell* down = cur.row(r + 1);
          Cell* out = next.row(r);
          for (int c = c0; c < c1; ++c)
            out[c] = mid[c] % kTopple + mid[c - 1] / kTopple +
                     mid[c + 1] / kTopple + up[c] / kTopple +
                     down[c] / kTopple;
          const bool owned_row = r >= k && r < k + blk.rows();
          if (owned_row && !changed_owned)
            changed_owned = !std::equal(mid + k, mid + k + blk.cols(), out + k);
        }
        std::swap(cur, next);
      }

      ++round;
      if (changed_owned) last_changed = round;
      // Executed rounds: up to kVerdictEvery - 1 more than the reported
      // `rounds` of a run that ends stable.
      if (rank == 0 && obs::enabled())
        obs::Registry::global().counter("sandpile.exchange_rounds").add(1);
      const bool checkpoint_round =
          checkpoints && round % options.checkpoint_every == 0;
      if (round % kVerdictEvery != 0 && !checkpoint_round &&
          round != options.max_rounds)
        continue;

      // Termination verdict, one max-allreduce for both signals: the
      // world's last changed round, or kAbort when rank 0 wants to abort.
      // The abort value dominates the max, so every rank stops at this
      // same round regardless of the changes — a consistent cancellation
      // cut.
      std::int64_t verdict;
      {
        obs::Span span("sandpile.verdict", "sandpile");
        span.arg("rank", rank);
        span.arg("round", round);
        const bool abort =
            rank == 0 && options.should_abort && options.should_abort();
        verdict = comm.allreduce_max(abort ? kAbort : last_changed);
      }
      if (rank == 0 && obs::enabled())
        obs::Registry::global().counter("sandpile.verdicts").add(1);
      if (verdict >= kAbort) {
        aborted = true;
        break;
      }
      if (verdict < round) {
        // Nothing changed after round `verdict`, so a per-round verdict
        // would have stopped at the round after it, on this same grid.
        globally_stable = true;
        round = static_cast<int>(verdict) + 1;
        break;
      }
      // Checkpoint right after a "still changing" verdict: every rank is
      // provably at the same round here, so the saved cut is globally
      // consistent.
      if (checkpoint_round) {
        const std::vector<std::byte> slab = detail::encode_slab(round, cur);
        comm.checkpoint(slab.data(), slab.size());
      }
    }

    // --- Gather owned blocks at rank 0 in rank order; the root reassembles
    // them from the known partition.
    std::vector<Cell> mine;
    mine.reserve(static_cast<std::size_t>(blk.rows()) * blk.cols());
    for (int r = k; r < k + blk.rows(); ++r)
      mine.insert(mine.end(), cur.row(r) + k, cur.row(r) + k + blk.cols());
    std::vector<Cell> all = comm.gather(0, mine);
    if (rank == 0) {
      PEACHY_CHECK(all.size() == static_cast<std::size_t>(H) * W);
      Field gathered(H, W);
      std::size_t i = 0;
      for (int src = 0; src < R; ++src) {
        const Block b(src, Py, Px, H, W, k);
        for (int y = b.rlo; y < b.rhi; ++y)
          for (int x = b.clo; x < b.chi; ++x) gathered.at(y, x) = all[i++];
      }
      const std::vector<std::byte> blob =
          detail::encode_result(gathered, globally_stable, round, aborted);
      comm.set_result(blob.data(), blob.size());
    }
  });

  detail::ResultBlob blob = detail::decode_result(outcome.rank0_result);
  DistributedResult result{std::move(blob.field), blob.stable,
                           blob.aborted,         blob.rounds,
                           blob.rounds * k,      outcome.comm,
                           outcome.net,          outcome.restarts,
                           outcome.peak_rss_bytes};
  return result;
}

}  // namespace peachy::sandpile

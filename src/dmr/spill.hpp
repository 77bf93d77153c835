// Spill-run files for the dmr external sort (DESIGN.md "Distributed
// MapReduce": spill format).
//
// A run file is a flat sequence of framed shuffle records:
//
//   u32 partition | u32 task | u32 seq | u32 key_len | u32 val_len
//   key bytes | value bytes
//
// all little-endian, no alignment, no file header — a run is always
// written and read by the same build on the same host, so the format only
// has to be self-delimiting, not portable. Records inside one run are
// sorted by (partition, key, task, seq) at spill time; the reducer merges
// runs instead of re-sorting.
//
// The same framing doubles as the in-flight shuffle-block format
// (rank-to-rank payloads) and the checkpoint record format, so every
// serialization path in dmr shares one encoder/decoder pair.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/bytes.hpp"

namespace peachy::dmr {

/// One shuffle record in encoded form. `task` is the global map-task index
/// and `seq` the emit index inside that task — together they are the
/// deterministic tie-break that makes the distributed merge reproduce
/// mr::Job's (map task, emit order) value ordering exactly.
struct RawRecord {
  std::uint32_t partition = 0;
  std::uint32_t task = 0;
  std::uint32_t seq = 0;
  std::vector<std::byte> key;
  std::vector<std::byte> value;

  /// Framed size of this record (header + payloads).
  std::size_t framed_bytes() const { return 20 + key.size() + value.size(); }
};

/// Appends the framed record to `out`.
void append_record(const RawRecord& rec, std::vector<std::byte>& out);

/// Reads one framed record and advances `in` past it. Returns false when
/// `in` is at its end; throws peachy::Error on a truncated frame.
bool read_record(bytes::Reader& in, RawRecord& rec);

/// Writes framed records to a run file. The writer is append-only; the
/// caller sorts before writing.
class RunWriter {
 public:
  explicit RunWriter(const std::string& path);
  void write(const RawRecord& rec);
  /// Flushes and closes; throws on I/O failure (a lost spill is data loss).
  void close();
  std::size_t records() const { return records_; }
  std::size_t bytes() const { return bytes_; }

 private:
  std::ofstream os_;
  std::string path_;
  std::size_t records_ = 0;
  std::size_t bytes_ = 0;
};

/// Sequentially reads a run file written by RunWriter.
class RunReader {
 public:
  explicit RunReader(const std::string& path);
  /// Reads the next record; false at a clean EOF, throws on a torn file
  /// or on a length field longer than the rest of the file.
  bool next(RawRecord& rec);

 private:
  std::ifstream is_;
  std::string path_;
  std::uint64_t left_ = 0;  ///< bytes not yet read
};

/// A private spill directory, created on demand and removed on
/// destruction (each rank of a dmr job owns one).
class SpillDir {
 public:
  /// `hint` names the directory to use (created if missing, kept on
  /// destruction); empty = a fresh mkdtemp under /tmp, removed with the
  /// object.
  explicit SpillDir(const std::string& hint = "");
  ~SpillDir();
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path for the n-th run file in this directory.
  std::string run_path(std::size_t n) const;

 private:
  std::string path_;
  bool owned_ = false;
};

}  // namespace peachy::dmr

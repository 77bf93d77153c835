// Unit tests for the dmr spill layer: record framing, run files, and the
// external sorter's spill/merge behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "dmr/codec.hpp"
#include "dmr/sorter.hpp"
#include "dmr/spill.hpp"

namespace peachy::dmr {
namespace {

RawRecord make_record(std::uint32_t partition, std::uint32_t task,
                      std::uint32_t seq, const std::string& key,
                      const std::string& value) {
  RawRecord rec;
  rec.partition = partition;
  rec.task = task;
  rec.seq = seq;
  Codec<std::string>::encode(key, rec.key);
  Codec<std::string>::encode(value, rec.value);
  return rec;
}

TEST(SpillFrame, RoundTripsThroughBuffer) {
  std::vector<std::byte> buf;
  append_record(make_record(3, 7, 11, "alpha", "one"), buf);
  append_record(make_record(0, 0, 0, "", ""), buf);  // empty key and value
  append_record(make_record(1, 2, 3, "k", std::string(1000, 'x')), buf);

  bytes::Reader in(buf);
  RawRecord rec;
  ASSERT_TRUE(read_record(in, rec));
  EXPECT_EQ(rec.partition, 3u);
  EXPECT_EQ(rec.task, 7u);
  EXPECT_EQ(rec.seq, 11u);
  EXPECT_EQ(Codec<std::string>::decode(rec.key.data(), rec.key.size()),
            "alpha");
  ASSERT_TRUE(read_record(in, rec));
  EXPECT_TRUE(rec.key.empty());
  EXPECT_TRUE(rec.value.empty());
  ASSERT_TRUE(read_record(in, rec));
  EXPECT_EQ(rec.value.size(), 1000u);
  EXPECT_FALSE(read_record(in, rec));  // clean end
  EXPECT_TRUE(in.at_end());
}

TEST(SpillFrame, TruncatedFrameThrows) {
  std::vector<std::byte> buf;
  append_record(make_record(1, 1, 1, "key", "value"), buf);
  buf.resize(buf.size() - 2);  // tear the value
  bytes::Reader in(buf);
  RawRecord rec;
  EXPECT_THROW(read_record(in, rec), Error);
}

TEST(SpillRun, WriterReaderRoundTrip) {
  SpillDir dir;
  {
    RunWriter writer(dir.run_path(0));
    for (int i = 0; i < 100; ++i)
      writer.write(make_record(0, 0, static_cast<std::uint32_t>(i),
                               "key" + std::to_string(i),
                               std::to_string(i * i)));
    writer.close();
    EXPECT_EQ(writer.records(), 100u);
  }
  RunReader reader(dir.run_path(0));
  RawRecord rec;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.seq, static_cast<std::uint32_t>(i));
    EXPECT_EQ(Codec<std::string>::decode(rec.key.data(), rec.key.size()),
              "key" + std::to_string(i));
  }
  EXPECT_FALSE(reader.next(rec));
}

TEST(SpillDirTest, TempDirIsRemovedOnDestruction) {
  std::string path;
  {
    SpillDir dir;
    path = dir.path();
    RunWriter writer(dir.run_path(0));
    writer.write(make_record(0, 0, 0, "k", "v"));
    writer.close();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ExternalSorterTest, UnboundedBufferNeverSpills) {
  SpillDir dir;
  ExternalSorter<std::string, std::uint64_t> sorter(dir, 0);
  sorter.add(0, "b", 2, 1, 0);
  sorter.add(0, "a", 1, 0, 0);
  sorter.add(1, "a", 3, 0, 1);
  EXPECT_EQ(sorter.stats().spills, 0u);

  std::vector<std::string> keys;
  std::vector<std::uint32_t> parts;
  sorter.stream([&](std::uint32_t p, const std::string& k, std::uint64_t&,
                    std::uint32_t) {
    parts.push_back(p);
    keys.push_back(k);
  });
  // Sorted by (partition, key): p0/"a", p0/"b", p1/"a".
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "a"}));
  EXPECT_EQ(parts, (std::vector<std::uint32_t>{0, 0, 1}));
}

TEST(ExternalSorterTest, SpillsAndMergesInOrder) {
  SpillDir dir;
  // ~40 bytes per record forces many spills with a 128-byte cap.
  ExternalSorter<std::string, std::uint64_t> sorter(dir, 128);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    // Insert in descending key order so merge must reorder across runs.
    const int k = n - 1 - i;
    char key[16];
    std::snprintf(key, sizeof key, "key%05d", k);
    sorter.add(static_cast<std::uint32_t>(k % 3), key,
               static_cast<std::uint64_t>(k), static_cast<std::uint32_t>(i),
               0);
  }
  EXPECT_GT(sorter.stats().spills, 1u);
  EXPECT_GT(sorter.stats().spilled_records, 0u);
  EXPECT_EQ(sorter.total_records(), static_cast<std::size_t>(n));

  std::uint32_t last_part = 0;
  std::string last_key;
  std::size_t seen = 0;
  sorter.stream([&](std::uint32_t p, const std::string& k, std::uint64_t& v,
                    std::uint32_t) {
    if (seen > 0) {
      // (partition, key) must be non-decreasing.
      EXPECT_TRUE(p > last_part || (p == last_part && k >= last_key))
          << "out of order at record " << seen;
    }
    EXPECT_EQ(v, static_cast<std::uint64_t>(std::stoi(k.substr(3))));
    last_part = p;
    last_key = k;
    ++seen;
  });
  EXPECT_EQ(seen, static_cast<std::size_t>(n));
}

TEST(ExternalSorterTest, TieBreaksByTaskThenSeq) {
  SpillDir dir;
  ExternalSorter<std::string, std::uint64_t> sorter(dir, 64);  // force spills
  // Same (partition, key) from several "tasks", out of task order.
  sorter.add(0, "k", 30, 3, 0);
  sorter.add(0, "k", 10, 1, 0);
  sorter.add(0, "k", 11, 1, 1);
  sorter.add(0, "k", 20, 2, 0);
  sorter.add(0, "k", 0, 0, 0);

  std::vector<std::uint64_t> values;
  sorter.stream([&](std::uint32_t, const std::string&, std::uint64_t& v,
                    std::uint32_t) { values.push_back(v); });
  EXPECT_EQ(values, (std::vector<std::uint64_t>{0, 10, 11, 20, 30}));
}

TEST(ExternalSorterTest, SnapshotRestoresThroughAddRaw) {
  SpillDir dir;
  ExternalSorter<std::string, std::uint64_t> sorter(dir, 96);
  for (int i = 0; i < 50; ++i)
    sorter.add(static_cast<std::uint32_t>(i % 2), "key" + std::to_string(i),
               static_cast<std::uint64_t>(i), 0,
               static_cast<std::uint32_t>(i));

  // Snapshot into a blob (the checkpoint path)...
  std::vector<std::byte> blob;
  std::size_t snapshot_count = 0;
  sorter.snapshot([&](const RawRecord& rec) {
    append_record(rec, blob);
    ++snapshot_count;
  });
  EXPECT_EQ(snapshot_count, 50u);

  // ...and rebuild a fresh sorter from it (the restore path).
  SpillDir dir2;
  ExternalSorter<std::string, std::uint64_t> restored(dir2, 96);
  bytes::Reader in(blob);
  RawRecord rec;
  while (read_record(in, rec)) restored.add_raw(rec);
  EXPECT_EQ(restored.total_records(), 50u);

  std::vector<std::pair<std::string, std::uint64_t>> a, b;
  sorter.stream([&](std::uint32_t, const std::string& k, std::uint64_t& v,
                    std::uint32_t) { a.emplace_back(k, v); });
  restored.stream([&](std::uint32_t, const std::string& k, std::uint64_t& v,
                      std::uint32_t) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
}

TEST(CodecTest, TrivialAndStringRoundTrip) {
  std::vector<std::byte> buf;
  Codec<double>::encode(3.25, buf);
  EXPECT_EQ(Codec<double>::decode(buf.data(), buf.size()), 3.25);
  EXPECT_THROW(Codec<double>::decode(buf.data(), 3), Error);

  std::vector<std::byte> sbuf;
  Codec<std::string>::encode("hello", sbuf);
  EXPECT_EQ(Codec<std::string>::decode(sbuf.data(), sbuf.size()), "hello");
  EXPECT_EQ(byte_size(std::string("hello")), 5u);
  EXPECT_EQ(byte_size(3.25), sizeof(double));
}

}  // namespace
}  // namespace peachy::dmr

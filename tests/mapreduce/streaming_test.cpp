#include "mapreduce/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/error.hpp"

namespace peachy::mr::streaming {
namespace {

// Identity mapper emitting "word\t1" per word; reducer counts per key.
LineMapper word_mapper() {
  return [](const std::string& line, const LineEmit& emit) {
    std::string word;
    for (char c : line + " ") {
      if (c == ' ') {
        if (!word.empty()) emit(word + "\t1");
        word.clear();
      } else {
        word += c;
      }
    }
  };
}

StreamReducer counting_reducer() {
  return [](const std::vector<std::string>& sorted, const LineEmit& emit) {
    std::string key;
    int count = 0;
    auto flush = [&] {
      if (count) emit(key + "\t" + std::to_string(count));
    };
    for (const auto& line : sorted) {
      const auto [k, v] = split_kv(line);
      if (k != key) {
        flush();
        key = k;
        count = 0;
      }
      count += std::stoi(v);
    }
    flush();
  };
}

std::map<std::string, int> to_map(const std::vector<std::string>& lines) {
  std::map<std::string, int> m;
  for (const auto& line : lines) {
    const auto [k, v] = split_kv(line);
    m[k] = std::stoi(v);
  }
  return m;
}

TEST(SplitKv, Basics) {
  EXPECT_EQ(split_kv("a\tb").first, "a");
  EXPECT_EQ(split_kv("a\tb").second, "b");
  EXPECT_EQ(split_kv("a\tb\tc").second, "b\tc");  // first tab only
  EXPECT_EQ(split_kv("noTab").first, "noTab");
  EXPECT_EQ(split_kv("noTab").second, "");
}

TEST(Streaming, WordCount) {
  const std::vector<std::string> input = {"a b a", "c b a"};
  const auto out = run_streaming(input, word_mapper(), counting_reducer());
  const auto m = to_map(out);
  EXPECT_EQ(m.at("a"), 3);
  EXPECT_EQ(m.at("b"), 2);
  EXPECT_EQ(m.at("c"), 1);
}

TEST(Streaming, ReducerSeesWholeSortedPartition) {
  // With one partition, the reducer must receive every record key-sorted.
  std::vector<std::string> seen;
  const StreamReducer spy = [&seen](const std::vector<std::string>& sorted,
                                    const LineEmit&) { seen = sorted; };
  StreamingConfig cfg;
  cfg.partitions = 1;
  run_streaming({"b z", "a z"}, word_mapper(), spy, cfg);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end(),
                             [](const std::string& x, const std::string& y) {
                               return split_kv(x).first < split_kv(y).first;
                             }));
}

TEST(Streaming, ResultIndependentOfWorkers) {
  std::vector<std::string> input;
  for (int i = 0; i < 100; ++i)
    input.push_back(std::string("w") + std::to_string(i % 7) + " w" +
                    std::to_string(i % 3));
  StreamingConfig base;
  base.partitions = 2;
  const auto baseline =
      to_map(run_streaming(input, word_mapper(), counting_reducer(), base));
  for (int mw : {1, 2, 4})
    for (int rw : {1, 2}) {
      StreamingConfig cfg;
      cfg.map_workers = mw;
      cfg.reduce_workers = rw;
      cfg.partitions = 2;
      const auto m =
          to_map(run_streaming(input, word_mapper(), counting_reducer(), cfg));
      EXPECT_EQ(m, baseline) << mw << "/" << rw;
    }
}

TEST(Streaming, SameKeyLandsInOnePartition) {
  // Count reducer invocations per key across partitions: every key must be
  // fully reduced exactly once.
  std::vector<std::string> input;
  for (int i = 0; i < 50; ++i) input.push_back(std::string("k") + std::to_string(i % 5));
  StreamingConfig cfg;
  cfg.partitions = 4;
  const auto out =
      run_streaming(input, word_mapper(), counting_reducer(), cfg);
  const auto m = to_map(out);
  EXPECT_EQ(m.size(), 5u);
  for (const auto& [k, count] : m) EXPECT_EQ(count, 10) << k;
  EXPECT_EQ(out.size(), 5u);  // no key split across partitions
}

TEST(Streaming, EmptyInput) {
  const auto out = run_streaming({}, word_mapper(), counting_reducer());
  EXPECT_TRUE(out.empty());
}

TEST(Streaming, NullPhasesRejected) {
  EXPECT_THROW(run_streaming({}, nullptr, counting_reducer()), Error);
  EXPECT_THROW(run_streaming({}, word_mapper(), nullptr), Error);
}

TEST(Streaming, BadWorkerCountsRejected) {
  StreamingConfig cfg;
  cfg.map_workers = 0;
  EXPECT_THROW(run_streaming({}, word_mapper(), counting_reducer(), cfg),
               Error);
}

TEST(SplitLines, HandlesUnixCrlfAndMissingTrailingNewline) {
  EXPECT_EQ(split_lines("a\nb\nc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  // CRLF terminators (Windows-authored job files).
  EXPECT_EQ(split_lines("a\r\nb\r\nc\r\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  // Missing trailing newline: the final line still counts.
  EXPECT_EQ(split_lines("a\nb\nc"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_lines("a\r\nb\r\nc"),
            (std::vector<std::string>{"a", "b", "c"}));
  // Mixed endings in one file.
  EXPECT_EQ(split_lines("a\r\nb\nc"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_lines(""), (std::vector<std::string>{}));
  EXPECT_EQ(split_lines("\n"), (std::vector<std::string>{""}));
  // A lone '\r' mid-line is content, not a terminator.
  EXPECT_EQ(split_lines("a\rb\n"), (std::vector<std::string>{"a\rb"}));
}

TEST(Streaming, CrlfInputMatchesUnixInput) {
  // A caller that split CRLF text on '\n' alone leaves '\r' on every line;
  // run_streaming must strip it so keys (and therefore counts) match the
  // Unix-authored equivalent of the same file.
  const std::vector<std::string> unix_lines = {"the quick fox",
                                               "the lazy dog"};
  std::vector<std::string> crlf_lines;
  for (const auto& line : unix_lines) crlf_lines.push_back(line + "\r");

  const auto expect =
      run_streaming(unix_lines, word_mapper(), counting_reducer());
  const auto got =
      run_streaming(crlf_lines, word_mapper(), counting_reducer());
  EXPECT_EQ(to_map(got), to_map(expect));
  EXPECT_EQ(to_map(got).count("fox\r"), 0u) << "CR leaked into a key";
}

TEST(Streaming, SplitLinesFeedsStreamingUnchanged) {
  // End to end: raw CRLF text with no trailing newline, split with
  // split_lines, produces the same counts as the clean Unix text.
  const std::string crlf_text = "the quick fox\r\nthe lazy dog";
  const std::string unix_text = "the quick fox\nthe lazy dog\n";
  const auto expect = run_streaming(split_lines(unix_text), word_mapper(),
                                    counting_reducer());
  const auto got = run_streaming(split_lines(crlf_text), word_mapper(),
                                 counting_reducer());
  EXPECT_EQ(to_map(got), to_map(expect));
}

}  // namespace
}  // namespace peachy::mr::streaming

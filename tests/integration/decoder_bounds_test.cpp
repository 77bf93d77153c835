// Every decoder of bytes that cross a process or disk boundary, against a
// golden corpus and a seeded corruption sweep (`ctest -L fuzz`).
//
// The corpus holds one valid encoding of each format, recorded from the
// encoders as they stood before they moved onto core/bytes.hpp. Every
// entry must re-encode byte for byte, so the table pins each wire and disk
// layout. The sweep then hands each decoder every truncation, 64 seeded
// single-bit flips, and each length field inflated to 2^32 - 1 and 2^62.
// A decoder either returns or throws peachy::Error. It never crashes,
// hangs, or lets std::bad_alloc / std::length_error escape (the telemetry
// hub and the daemon catch only peachy::Error), and every inflated length
// throws. No allocation may exceed 1 GiB (see operator new below).
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/bytes.hpp"
#include "core/error.hpp"
#include "dmr/job.hpp"
#include "mpp/checkpoint.hpp"
#include "mpp/pool.hpp"
#include "mpp/telemetry.hpp"
#include "net/fault.hpp"
#include "net/rendezvous.hpp"
#include "net/wire.hpp"
#include "obs/cluster.hpp"
#include "sandpile/result_blob.hpp"
#include "svc/protocol.hpp"
#include "svc/queue.hpp"
#include "svc/runner.hpp"

// Any single allocation above 1 GiB fails with std::bad_alloc in this
// binary, as it would in a memory-limited process. A decoder that sizes a
// buffer from a lying length field therefore fails the sweep below instead
// of quietly zero-filling gigabytes on a machine with memory to spare.
namespace {
void* capped_alloc(std::size_t n) noexcept {
  return n > (std::size_t{1} << 30) ? nullptr : std::malloc(n ? n : 1);
}
// Out of line, so the compiler does not pair an inlined free() with the
// new-expression at each call site and warn about a mismatch.
[[gnu::noinline]] void capped_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = capped_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return capped_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return capped_alloc(n);
}
void operator delete(void* p) noexcept { capped_free(p); }
void operator delete[](void* p) noexcept { capped_free(p); }
void operator delete(void* p, std::size_t) noexcept { capped_free(p); }
void operator delete[](void* p, std::size_t) noexcept { capped_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  capped_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  capped_free(p);
}

namespace peachy {
namespace {

using Blob = std::vector<std::byte>;

constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

Blob from_hex(std::string_view hex) {
  Blob out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::byte>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

Blob from_string(std::string_view s) {
  Blob out;
  bytes::append_bytes(out, s.data(), s.size());
  return out;
}

// A private directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/peachy-decoder-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

void write_file(const std::string& path, const Blob& data) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
}

Blob read_whole(const std::string& path) { return *bytes::read_file(path); }

// Runs `decode` over the whole of `blob` and insists nothing is left over.
template <typename F>
auto read_all(const Blob& blob, F decode) {
  bytes::Reader in(blob);
  auto value = decode(in);
  in.expect_end("payload");
  return value;
}

// --- The corpus values -------------------------------------------------------

svc::JobSpec sandpile_spec() {
  svc::JobSpec s;
  s.kind = svc::JobKind::kSandpile;
  s.tenant = "alice";
  s.name = "pile";
  s.ranks = 4;
  s.isolation = svc::Isolation::kProcess;
  s.deadline_ms = 9000;
  s.sandpile = {24, 32, 5000, 2, 4};
  return s;
}

svc::JobSpec dmr_spec() {
  svc::JobSpec s;
  s.kind = svc::JobKind::kDmr;
  s.tenant = "bob";
  s.name = "wc";
  s.ranks = 2;
  s.isolation = svc::Isolation::kThreads;
  s.dmr = {300, 0x1122334455667788ull, 7, 4, 3, 2, 1, 0};
  return s;
}

svc::JobSpec wfsim_spec() {
  svc::JobSpec s;
  s.kind = svc::JobKind::kWfsim;
  s.tenant = "";
  s.name = "sweep";
  s.ranks = 1;
  s.wfsim = {2, 48, 3};
  return s;
}

net::FrameHeader frame_header() {
  net::FrameHeader h;
  h.type = net::FrameType::kData;
  h.flags = net::kFlagCarriesCtx;
  h.src = 3;
  h.tag = -7;
  h.seq = 0x0102030405060708ull;
  h.sent_ns = 42;
  h.len = 5;
  h.crc = 0xdeadbeefu;
  return h;
}

net::WorkerReport worker_report() {
  net::WorkerReport r;
  r.ok = true;
  std::uint64_t v = 0;
  for (std::uint64_t* f :
       {&r.messages_sent, &r.bytes_sent, &r.window_stalls,
        &r.frames_abandoned, &r.fault_severed})
    *f = ++v;
  r.error = "peer 2 hung up";
  r.result = from_hex("deadbeef");
  return r;
}

svc::JobStatus job_status() {
  svc::JobStatus s;
  s.id = 17;
  s.state = svc::JobState::kFailed;
  s.kind = svc::JobKind::kDmr;
  s.tenant = "bob";
  s.name = "wc";
  s.error = "rank 1 died";
  s.restarts = 2;
  s.peak_rss_bytes = 123456789;
  return s;
}

std::vector<svc::JobBrief> job_briefs() {
  return {{3, svc::JobKind::kSandpile, svc::JobState::kRunning, "alice", "pile"},
          {4, svc::JobKind::kWfsim, svc::JobState::kCancelled, "", "sweep"}};
}

sandpile::Field sandpile_field() {
  sandpile::Field f(3, 4);
  for (int y = 0; y < 3; ++y)
    for (int x = 0; x < 4; ++x)
      f.at(y, x) = static_cast<sandpile::Cell>((y * 4 + x) % 4);
  return f;
}

// The dmr and wfsim result blobs come from real runs of the job runner.
Blob run_svc_job(svc::JobSpec spec) {
  mpp::RankPool pool(2);
  svc::RunnerOptions options;
  options.pool = &pool;
  options.isolation = svc::Isolation::kThreads;
  return svc::run_job(spec, options).result;
}

svc::JobRecord job_record() {
  svc::JobRecord rec;
  rec.id = 5;
  rec.state = svc::JobState::kDone;
  rec.spec = sandpile_spec();
  rec.result = from_hex("010203");
  rec.restarts = 1;
  rec.peak_rss_bytes = 4096;
  return rec;
}

Grid2D<sandpile::Cell> slab_grid() {
  Grid2D<sandpile::Cell> g(3, 2, 0);
  for (std::size_t i = 0; i < g.size(); ++i)
    g.data()[i] = static_cast<sandpile::Cell>(i + 1);
  return g;
}

Blob dmr_rank_blob() {
  const dmr::detail::RankCounters rc{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 2};
  const std::vector<std::vector<std::pair<std::string, std::uint64_t>>> out = {
      {{"ant", 2}, {"bee", 3}}, {{"cat", 4}}};
  Blob blob;
  dmr::detail::encode_rank_blob(rc, {0, 2}, {5, 4}, out, blob);
  return blob;
}

std::vector<dmr::RawRecord> spill_records() {
  dmr::RawRecord a{1, 2, 3, from_string("key"), from_hex("1020")};
  dmr::RawRecord b{1, 4, 0, from_string("z"), {}};
  dmr::RawRecord c{2, 0, 9, {}, from_hex("07070707")};
  return {a, b, c};
}

Blob encode_run(const std::vector<dmr::RawRecord>& records) {
  const TempDir dir;
  const std::string path = dir.path + "/run.spill";
  dmr::RunWriter writer(path);
  for (const dmr::RawRecord& rec : records) writer.write(rec);
  writer.close();
  return read_whole(path);
}

Blob decode_run(const Blob& file) {
  const TempDir dir;
  const std::string path = dir.path + "/run.spill";
  write_file(path, file);
  dmr::RunReader reader(path);
  Blob out;
  dmr::RawRecord rec;
  while (reader.next(rec)) dmr::append_record(rec, out);
  return out;
}

Blob telemetry_snapshot() {
  obs::MetricSample hist;
  hist.name = "svc.jobs";
  hist.kind = obs::MetricSample::Kind::kHistogram;
  hist.value = -3;
  hist.count = 4;
  hist.sum = 99;
  hist.buckets = {1, 0, 3};
  obs::MetricSample counter;
  counter.name = "net.bytes";
  counter.value = 1234;
  obs::TraceEvent span;
  span.name = "dmr.epoch";
  span.cat = "dmr";
  span.ts_ns = 1000;
  span.dur_ns = 250;
  span.tid = 3;
  span.args = {{"rank", 1}, {"records", -5}};
  obs::TraceEvent instant;
  instant.name = "ckpt";
  instant.cat = "mpp";
  instant.ph = obs::TraceEvent::Phase::kInstant;
  instant.ts_ns = 2000;
  return mpp::telemetry::encode_snapshot(2, {hist, counter}, {span, instant});
}

// --- The format table ---------------------------------------------------------

/// A length (or dimension) field: byte offset and width (4 or 8).
struct LengthField {
  std::size_t offset;
  int width;
};

struct Format {
  const char* name;
  const char* golden;  ///< hex, recorded before the port to core/bytes.hpp
                       ///< (wire v3 for the header and worker report)
  /// The corpus values above, encoded by this build.
  std::function<Blob()> encode;
  /// Decodes; returns what was decoded, re-encoded (nullopt where the
  /// decoded value cannot be re-encoded into the same format).
  std::function<std::optional<Blob>(const Blob&)> decode;
  std::vector<LengthField> lengths;
  /// The last four bytes are a CRC of the rest (core/bytes.hpp sealed
  /// frame); every mutation is also tried with the CRC recomputed, so the
  /// body parser is reached and not only the CRC check.
  bool sealed = false;
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

Blob text_blob(const std::string& text) {
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return Blob(p, p + text.size());
}

Blob spec_bytes(const svc::JobSpec& spec) {
  Blob out;
  svc::append_spec(out, spec);
  return out;
}

std::optional<Blob> respec(const Blob& b) {
  return spec_bytes(read_all(b, [](bytes::Reader& in) {
    return svc::read_spec(in);
  }));
}

const std::vector<Format>& formats() {
  static const std::vector<Format> table = {
      {"wire_header",
       "504541430300030203000000f9ffffff08070605040302012a000000"
       "0000000005000000efbeadde",
       [] {
         Blob out(net::kHeaderBytes);
         net::encode_header(frame_header(), out.data());
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         // The transport reads a header as exactly kHeaderBytes.
         const auto raw = read_all(b, [](bytes::Reader& in) {
           return in.take(net::kHeaderBytes);
         });
         Blob out(net::kHeaderBytes);
         net::encode_header(net::decode_header(raw.data()), out.data());
         return out;
       },
       {{32, 4}}},
      {"rendezvous_table",
       "409c0000419c0000429c0000",
       [] { return net::encode_table({40000, 40001, 40002}); },
       [](const Blob& b) -> std::optional<Blob> {
         return net::encode_table(net::decode_table(b, 3));
       },
       {}},
      {"worker_report",
       "01010000000000000002000000000000000300000000000000040000"
       "000000000005000000000000000e0000007065657220322068756e67"
       "20757004000000deadbeef",
       [] { return net::encode_report(worker_report()); },
       [](const Blob& b) -> std::optional<Blob> {
         return net::encode_report(net::decode_report(b));
       },
       {{41, 4}, {59, 4}}},
      {"fault_plan",
       "3432",
       [] {
         net::FaultPlan plan;
         plan.sever_after = 42;
         return text_blob(plan.encode());
       },
       [](const Blob& b) -> std::optional<Blob> {
         // The plan travels as the text of one environment variable.
         const std::string text(reinterpret_cast<const char*>(b.data()),
                                b.size());
         return text_blob(net::FaultPlan::decode(text).encode());
       },
       {}},
      {"job_spec_sandpile",
       "0100000005000000616c6963650400000070696c6504000000020000"
       "00282300001800000020000000881300000200000004000000",
       [] { return spec_bytes(sandpile_spec()); }, respec,
       {{4, 4}, {13, 4}}},
      {"job_spec_dmr",
       "0200000003000000626f620200000077630200000001000000000000"
       "002c0100008877665544332211070000000400000003000000020000"
       "000100000000000000",
       [] { return spec_bytes(dmr_spec()); }, respec, {{4, 4}, {11, 4}}},
      {"job_spec_wfsim",
       "03000000000000000500000073776565700100000000000000000000"
       "00020000003000000003000000",
       [] { return spec_bytes(wfsim_spec()); }, respec, {{4, 4}, {8, 4}}},
      {"job_status",
       "1100000000000000040000000200000003000000626f620200000077"
       "630b00000072616e6b203120646965640200000015cd5b0700000000"
       "00000000",
       [] {
         Blob out;
         svc::append_status(out, job_status());
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         svc::append_status(out, read_all(b, [](bytes::Reader& in) {
                              return svc::read_status(in);
                            }));
         return out;
       },
       {{16, 4}, {23, 4}, {29, 4}}},
      {"job_briefs",
       "020000000300000000000000010000000200000005000000616c6963"
       "650400000070696c6504000000000000000300000005000000000000"
       "00050000007377656570",
       [] {
         Blob out;
         svc::append_briefs(out, job_briefs());
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         svc::append_briefs(out, read_all(b, [](bytes::Reader& in) {
                              return svc::read_briefs(in);
                            }));
         return out;
       },
       {{0, 4}, {20, 4}, {29, 4}, {53, 4}, {57, 4}}},
      {"service_stats",
       "0200000001000000080000000400000064000000000000005a000000"
       "000000000500000000000000",
       [] {
         Blob out;
         svc::append_stats(out, {2, 1, 8, 4, 100, 90, 5});
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         svc::append_stats(out, read_all(b, [](bytes::Reader& in) {
                             return svc::read_stats(in);
                           }));
         return out;
       },
       {}},
      {"sandpile_result",
       "03000000040000004d00000001000000000100000002000000030000"
       "00000000000100000002000000030000000000000001000000020000"
       "0003000000",
       [] {
         return sandpile::detail::encode_result(sandpile_field(), true, 77);
       },
       [](const Blob& b) -> std::optional<Blob> {
         const auto r = sandpile::detail::decode_result(b);
         return sandpile::detail::encode_result(r.field, r.stable, r.rounds,
                                                r.aborted);
       },
       {{0, 4}, {4, 4}}},
      {"svc_dmr_result",
       "0500000002000000773205000000000000000200000077300a000000"
       "0000000002000000773109000000000000000200000077330d000000"
       "000000000200000077340300000000000000",
       [] {
         svc::JobSpec spec = dmr_spec();
         spec.dmr.words = 40;
         spec.dmr.vocabulary = 5;
         spec.dmr.seed = 3;
         spec.dmr.checkpoint_every = 0;
         return run_svc_job(spec);
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         svc::append_dmr_result(out, svc::decode_dmr_result(b));
         return out;
       },
       {{0, 4}, {4, 4}, {18, 4}, {32, 4}, {46, 4}, {60, 4}}},
      {"svc_wfsim_result",
       "02000000000000000000000000000000009e6b406f2d4f04543c6140"
       "000000000000f03fcc7f61a1e3b082404c82a993afa06c40",
       [] {
         svc::JobSpec spec = wfsim_spec();
         spec.ranks = 2;
         return run_svc_job(spec);
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         svc::append_wfsim_result(out, svc::decode_wfsim_result(b));
         return out;
       },
       {{0, 4}}},
      {"job_record",
       "5053564a030000000500000000000000030000000100000000100000"
       "000000000100000005000000616c6963650400000070696c65040000"
       "00020000002823000018000000200000008813000002000000040000"
       "00000000000300000000000000010203a0767310",
       [] { return svc::encode_record(job_record()); },
       [](const Blob& b) -> std::optional<Blob> {
         return svc::encode_record(svc::decode_record(b));
       },
       {{36, 4}, {45, 4}, {85, 4}, {89, 8}}, true},
      {"checkpoint",  // rank 2's file of a 3-rank world, epoch 9
       "50434b520100000003000000020000000900000003000000000000000102036c"
       "3a91f5",
       [] { return mpp::encode_rank_checkpoint(3, 2, 9, from_hex("010203")); },
       [](const Blob& b) -> std::optional<Blob> {
         const mpp::RankCheckpoint c = mpp::decode_rank_checkpoint(b, 3, 2);
         return mpp::encode_rank_checkpoint(3, 2, c.epoch, c.blob);
       },
       {{8, 4}, {20, 8}}, true},
      {"sandpile_slab",
       "0c000000030000000200000001000000020000000300000004000000"
       "0500000006000000",
       [] { return sandpile::detail::encode_slab(12, slab_grid()); },
       [](const Blob& b) -> std::optional<Blob> {
         const auto s = sandpile::detail::decode_slab(b, 3, 2);
         return sandpile::detail::encode_slab(s.round, s.grid);
       },
       {{4, 4}, {8, 4}}},
      {"dmr_rank_blob",
       "01000000000000000200000000000000030000000000000004000000"
       "00000000050000000000000006000000000000000700000000000000"
       "080000000000000009000000000000000a0000000000000002000000"
       "00000000020000000000000005000000000000000200000000000000"
       "0000000000000000000000000300000008000000616e740200000000"
       "00000000000000000000000100000003000000080000006265650300"
       "00000000000002000000040000000000000001000000000000000200"
       "00000000000000000000030000000800000063617404000000000000"
       "00",
       dmr_rank_blob,
       [](const Blob& b) -> std::optional<Blob> {
         dmr::detail::assemble_result({b}, 3);
         return std::nullopt;
       },
       {{88, 4}, {104, 8}, {124, 4}, {128, 4}, {155, 4}, {159, 4}, {186, 8}, {206, 4}, {210, 4}}},
      {"dmr_job_result",
       "00000000010000000000000002000000000000000300000000000000"
       "04000000000000000500000000000000060000000000000007000000"
       "00000000080000000000000009000000000000000a00000000000000"
       "02000000000000000300000005000000000000000000000000000000"
       "04000000000000000300000000000000000000000000000000000000"
       "0300000008000000616e740200000000000000000000000000000001"
       "00000003000000080000006265650300000000000000020000000000"
       "00000000000003000000080000006361740400000000000000",
       [] {
         Blob out;
         bytes::append_u32(out, 0);  // not aborted
         const Blob assembled = dmr::detail::assemble_result({dmr_rank_blob()}, 3);
         out.insert(out.end(), assembled.begin(), assembled.end());
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         dmr::detail::decode_result<std::string, std::uint64_t>(b, 3);
         return std::nullopt;
       },
       {{92, 4}, {120, 8}, {140, 4}, {144, 4}, {171, 4}, {175, 4}, {202, 4}, {206, 4}}},
      {"spill_record",
       "01000000020000000300000003000000020000006b65791020",
       [] {
         Blob out;
         dmr::append_record(spill_records()[0], out);
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         Blob out;
         dmr::append_record(read_all(b,
                                     [](bytes::Reader& in) {
                                       dmr::RawRecord rec;
                                       PEACHY_CHECK(dmr::read_record(in, rec));
                                       return rec;
                                     }),
                            out);
         return out;
       },
       {{12, 4}, {16, 4}}},
      {"spill_run",
       "01000000020000000300000003000000020000006b65791020010000"
       "00040000000000000001000000000000007a02000000000000000900"
       "0000000000000400000007070707",
       [] { return encode_run(spill_records()); },
       [](const Blob& b) -> std::optional<Blob> { return decode_run(b); },
       {{12, 4}, {16, 4}, {37, 4}, {41, 4}, {58, 4}, {62, 4}}},
      {"telemetry_snapshot",
       "01000000020000000200000000000000080000007376632e6a6f6273"
       "02000000fdffffffffffffff04000000000000006300000000000000"
       "03000000000000000100000000000000000000000000000003000000"
       "00000000090000006e65742e627974657300000000d2040000000000"
       "00000000000000000000000000000000000000000000000000020000"
       "000000000009000000646d722e65706f636803000000646d72580000"
       "00e803000000000000fa000000000000000300000002000000000000"
       "000400000072616e6b0100000000000000070000007265636f726473"
       "fbffffffffffffff04000000636b7074030000006d707069000000d0"
       "070000000000000000000000000000000000000000000000000000",
       telemetry_snapshot,
       [](const Blob& b) -> std::optional<Blob> {
         const auto snap = mpp::telemetry::decode_snapshot(b);
         return mpp::telemetry::encode_snapshot(snap.rank, snap.samples,
                                                snap.events);
       },
       {{8, 8}, {16, 4}, {56, 8}, {88, 4}, {129, 8}, {137, 8}, {145, 4}, {158, 4}, {189, 8}, {197, 4}, {213, 4}, {232, 4}, {240, 4}, {271, 8}}},
      {"trace_context",
       "efcdab89674523010700000000000200",
       [] {
         Blob out(16);
         obs::cluster::encode_context({0x0123456789abcdefull, 0x0002000000000007ull},
                                      out.data());
         return out;
       },
       [](const Blob& b) -> std::optional<Blob> {
         // The trailer is read as exactly 16 bytes after a payload.
         const auto raw =
             read_all(b, [](bytes::Reader& in) { return in.take(16); });
         Blob out(16);
         obs::cluster::encode_context(obs::cluster::decode_context(raw.data()),
                                      out.data());
         return out;
       },
       {}},
  };
  return table;
}

// Recomputes a sealed image's trailer CRC (images too short to hold one
// are left alone).
void reseal(Blob& image) {
  if (image.size() < 4) return;
  bytes::store_le(image.data() + image.size() - 4,
                  bytes::crc32(image.data(), image.size() - 4));
}

// Decodes one mutated input. Returns whether the decoder threw
// peachy::Error; any other exception is a test failure.
bool decode_throws(const Format& f, const Blob& input, const std::string& how) {
  try {
    f.decode(input);
    return false;
  } catch (const Error&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << f.name << " " << how << ": " << typeid(e).name()
                  << " escaped: " << e.what();
  }
  return false;
}

class FormatSweep : public ::testing::TestWithParam<Format> {};

TEST_P(FormatSweep, GoldenReencodesByteIdentical) {
  const Format& f = GetParam();
  const Blob golden = from_hex(f.golden);
  EXPECT_EQ(f.encode(), golden) << f.name << ": the encoder moved a byte";
  const std::optional<Blob> back = f.decode(golden);
  if (back) {
    EXPECT_EQ(*back, golden) << f.name << ": decode/encode differs";
  }
  for (const LengthField& len : f.lengths)
    ASSERT_LE(len.offset + static_cast<std::size_t>(len.width), golden.size());
}

TEST_P(FormatSweep, CorruptionThrowsPeachyErrorOrDecodes) {
  const Format& f = GetParam();
  const Blob golden = from_hex(f.golden);
  // Tries `input` as is and, for sealed formats, re-sealed.
  const auto attempt = [&](Blob input, const std::string& how) {
    bool threw = decode_throws(f, input, how);
    if (f.sealed) {
      reseal(input);
      threw = decode_throws(f, input, how + " (resealed)") && threw;
    }
    return threw;
  };

  for (std::size_t n = 0; n < golden.size(); ++n)
    attempt(Blob(golden.begin(), golden.begin() + static_cast<long>(n)),
            "truncated to " + std::to_string(n) + " bytes");

  std::mt19937_64 rng(0x9eac4ull ^ std::hash<std::string_view>{}(f.name));
  for (int i = 0; i < 64; ++i) {
    Blob flipped = golden;
    const std::size_t bit = rng() % (golden.size() * 8);
    flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    attempt(std::move(flipped), "bit " + std::to_string(bit) + " flipped");
  }

  for (const LengthField& len : f.lengths) {
    for (const std::uint64_t v : {std::uint64_t{0xffffffffu}, kHuge}) {
      if (len.width == 4 && v > 0xffffffffu) continue;
      Blob inflated = golden;
      if (len.width == 4)
        bytes::store_le(inflated.data() + len.offset,
                        static_cast<std::uint32_t>(v));
      else
        bytes::store_le(inflated.data() + len.offset, v);
      const std::string how = "length at " + std::to_string(len.offset) +
                              " set to " + std::to_string(v);
      EXPECT_TRUE(attempt(std::move(inflated), how))
          << f.name << " accepted a " << how;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FormatSweep, ::testing::ValuesIn(formats()),
                         [](const ::testing::TestParamInfo<Format>& info) {
                           return std::string(info.param.name);
                         });

// --- Targeted lying lengths and enums -------------------------------------

void put_u64_at(Blob& blob, std::size_t offset, std::uint64_t v) {
  bytes::store_le(blob.data() + offset, v);
}

// A count field followed by `body` bytes that cannot hold that many.
Blob u32_count_then_body(std::uint32_t count, std::size_t body) {
  Blob blob;
  bytes::append_u32(blob, count);
  blob.resize(blob.size() + body);
  return blob;
}

void decode_lying_checkpoint() {
  const TempDir dir;
  mpp::save_checkpoint(dir.path, {1, {Blob(8)}});
  const std::filesystem::path path = mpp::rank_checkpoint_path(dir.path, 0);
  Blob file = read_whole(path);
  // magic, version, world, rank, epoch, then the u64 blob length. The CRC
  // is recomputed, so only the bounds check stands in the way. 2^64 - 1
  // wraps a `p + n` pointer check around to a value that passes.
  put_u64_at(file, 20, ~std::uint64_t{0});
  reseal(file);
  write_file(path, file);
  mpp::load_checkpoint(dir.path, 1);
}

void decode_lying_sandpile_result() {
  Blob blob = sandpile::detail::encode_result(sandpile::Field(2, 2), true, 1);
  Blob lying;
  bytes::append_u32(lying, 1u << 30);  // height
  bytes::append_u32(lying, 1u << 30);  // width
  lying.insert(lying.end(), blob.begin() + 8, blob.end());
  sandpile::detail::decode_result(lying);
}

void decode_lying_telemetry_snapshot() {
  Blob blob = mpp::telemetry::encode_snapshot(0, {}, {});
  put_u64_at(blob, 8, kHuge);  // after version and rank: the sample count
  mpp::telemetry::decode_snapshot(blob);
}

void decode_lying_dmr_job_result() {
  Blob blob;
  bytes::append_u32(blob, 0);  // aborted
  for (int i = 0; i < 11; ++i) bytes::append_u64(blob, 0);  // counters
  bytes::append_u32(blob, 1);      // partitions
  bytes::append_u64(blob, 0);      // records of partition 0
  bytes::append_u64(blob, kHuge);  // output count
  blob.resize(blob.size() + 8);
  dmr::detail::decode_result<std::string, std::uint64_t>(blob, 1);
}

// A spill run whose first record claims a 4 GiB key: the reader must
// refuse before allocating it.
void decode_lying_spill_run() {
  Blob file = encode_run(spill_records());
  bytes::store_le(file.data() + 12, std::uint32_t{0xffffffffu});
  decode_run(file);
}

struct Case {
  const char* name;
  std::function<void()> decode;
};

// Keeps the discovered test names stable: gtest would otherwise print the
// struct's bytes, pointers included.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

class DecoderBoundsTest : public ::testing::TestWithParam<Case> {};

TEST_P(DecoderBoundsTest, LyingCountThrowsPeachyError) {
  EXPECT_THROW(GetParam().decode(), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, DecoderBoundsTest,
    ::testing::Values(
        Case{"checkpoint", decode_lying_checkpoint},
        Case{"sandpile_result", decode_lying_sandpile_result},
        Case{"telemetry_snapshot", decode_lying_telemetry_snapshot},
        Case{"svc_dmr_result",
             [] { svc::decode_dmr_result(u32_count_then_body(~0u, 8)); }},
        Case{"svc_wfsim_result",
             [] { svc::decode_wfsim_result(u32_count_then_body(~0u, 8)); }},
        Case{"dmr_job_result", decode_lying_dmr_job_result},
        Case{"spill_run", decode_lying_spill_run}),
    case_name);

// A trace event whose phase is '"' would be written verbatim into the
// merged Chrome trace JSON and break it.
void decode_bad_trace_phase() {
  obs::TraceEvent ev;
  ev.name = "x";
  ev.ph = static_cast<obs::TraceEvent::Phase>('"');
  mpp::telemetry::decode_snapshot(mpp::telemetry::encode_snapshot(0, {}, {ev}));
}

void decode_bad_status_state() {
  svc::JobStatus s = job_status();
  s.state = static_cast<svc::JobState>(9);
  Blob blob;
  svc::append_status(blob, s);
  bytes::Reader in(blob);
  svc::read_status(in);
}

void decode_bad_brief_kind() {
  std::vector<svc::JobBrief> briefs = job_briefs();
  briefs[1].kind = static_cast<svc::JobKind>(7);
  Blob blob;
  svc::append_briefs(blob, briefs);
  bytes::Reader in(blob);
  svc::read_briefs(in);
}

class DecoderEnumTest : public ::testing::TestWithParam<Case> {};

TEST_P(DecoderEnumTest, OutOfRangeValueThrowsPeachyError) {
  EXPECT_THROW(GetParam().decode(), Error);
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, DecoderEnumTest,
    ::testing::Values(Case{"telemetry_trace_phase", decode_bad_trace_phase},
                      Case{"svc_status_state", decode_bad_status_state},
                      Case{"svc_brief_kind", decode_bad_brief_kind}),
    case_name);

}  // namespace
}  // namespace peachy

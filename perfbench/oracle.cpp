#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <exception>

#include "mapreduce/job.hpp"
#include "net/wire.hpp"
#include "sandpile/result_blob.hpp"
#include "svc/protocol.hpp"
#include "wfsim/montage.hpp"
#include "wfsim/platform.hpp"
#include "wfsim/simulate.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace peachy;

void map_words(const int&, const std::string& line,
               mr::Emitter<std::string, std::uint64_t>& out) {
  std::size_t start = 0;
  while (start < line.size()) {
    std::size_t end = line.find(' ', start);
    if (end == std::string::npos) end = line.size();
    if (end > start) out.emit(line.substr(start, end - start), 1);
    start = end + 1;
  }
}

void sum_counts(const std::string& word,
                const std::vector<std::uint64_t>& counts,
                mr::Emitter<std::string, std::uint64_t>& out) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  out.emit(word, total);
}

WordCounts reference_word_count(
    const std::vector<std::pair<int, std::string>>& corpus,
    const svc::DmrParams& p) {
  mr::Job<int, std::string, std::string, std::uint64_t, std::string,
          std::uint64_t>
      job;
  job.mapper(map_words).combiner(sum_counts).reducer(sum_counts);
  mr::JobConfig cfg;
  cfg.map_tasks = static_cast<int>(p.map_tasks);
  cfg.partitions = static_cast<int>(p.partitions);
  job.config(cfg);
  WordCounts counts = job.run(corpus);
  std::sort(counts.begin(), counts.end());
  return counts;
}

svc::WfsimRow simulate_step(const svc::WfsimParams& p, std::uint32_t step) {
  static const wf::Workflow wf = wf::make_montage();
  static const wf::Platform platform = wf::eduwrench_platform();
  const double fraction =
      p.sweep_steps == 1 ? 0.0
                         : static_cast<double>(step) / (p.sweep_steps - 1);
  wf::RunConfig cfg;
  cfg.nodes_on = static_cast<int>(p.nodes_on);
  cfg.pstate = static_cast<int>(p.pstate);
  cfg.placement = wf::Placement::level_fractions(
      wf,
      std::vector<double>(static_cast<std::size_t>(wf.num_levels()), fraction));
  const wf::SimResult r = wf::simulate(wf, platform, cfg);
  return {fraction, r.makespan_s, r.total_gco2};
}

std::vector<svc::WfsimRow> reference_sweep(const svc::WfsimParams& p) {
  std::vector<svc::WfsimRow> rows;
  for (std::uint32_t s = 0; s < p.sweep_steps; ++s)
    rows.push_back(simulate_step(p, s));
  return rows;
}

References build_references(const svc::JobSpec& sandpile,
                            const svc::JobSpec& dmr,
                            const std::vector<std::uint64_t>& dmr_seeds,
                            const svc::JobSpec& wfsim) {
  References refs;
  const svc::SandpileParams& sp = sandpile.sandpile;
  refs.sandpile = sandpile::center_pile(static_cast<int>(sp.height),
                                        static_cast<int>(sp.width), sp.grains);
  sandpile::stabilize_reference(refs.sandpile);
  for (const std::uint64_t seed : dmr_seeds) {
    svc::DmrParams p = dmr.dmr;
    p.seed = seed;
    refs.dmr[seed] = reference_word_count(dmr_corpus(p), p);
  }
  refs.wfsim = reference_sweep(wfsim.wfsim);
  return refs;
}

namespace {

std::string check_sandpile(const References& refs, const svc::JobSpec& spec,
                           const std::vector<std::byte>& blob) {
  const sandpile::detail::ResultBlob r = sandpile::detail::decode_result(blob);
  const std::size_t cells =
      static_cast<std::size_t>(spec.sandpile.height) * spec.sandpile.width;
  if (r.field.height() != static_cast<int>(spec.sandpile.height) ||
      r.field.width() != static_cast<int>(spec.sandpile.width) ||
      blob.size() != 13 + 4 * cells)
    return "sandpile blob has the wrong shape";
  if (!r.stable || r.aborted) return "sandpile result is not a stable grid";
  if (!r.field.same_interior(refs.sandpile))
    return "sandpile grid differs from stabilize_reference";
  return "";
}

std::string check_dmr(const References& refs, const svc::JobSpec& spec,
                      const std::vector<std::byte>& blob) {
  const auto it = refs.dmr.find(spec.dmr.seed);
  if (it == refs.dmr.end()) return "no reference for this dmr corpus";
  WordCounts counts = svc::decode_dmr_result(blob);
  std::size_t encoded = 4;
  std::uint64_t total = 0;
  for (const auto& [word, count] : counts) {
    encoded += 4 + word.size() + 8;
    total += count;
  }
  if (encoded != blob.size()) return "dmr blob has trailing bytes";
  if (total != spec.dmr.words) return "dmr counts do not sum to the word total";
  std::sort(counts.begin(), counts.end());
  if (counts != it->second) return "dmr counts differ from mr::Job";
  return "";
}

std::string check_wfsim(const References& refs, const svc::JobSpec& spec,
                        const std::vector<std::byte>& blob) {
  const std::vector<svc::WfsimRow> rows = svc::decode_wfsim_result(blob);
  if (rows.size() != spec.wfsim.sweep_steps || rows.size() != refs.wfsim.size() ||
      blob.size() != 4 + 24 * rows.size())
    return "wfsim blob has the wrong row count";
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const svc::WfsimRow& a = rows[i];
    const svc::WfsimRow& b = refs.wfsim[i];
    if (bits(a.fraction) != bits(b.fraction) ||
        bits(a.makespan_s) != bits(b.makespan_s) ||
        bits(a.total_gco2) != bits(b.total_gco2))
      return "wfsim row " + std::to_string(i) + " differs from wf::simulate";
  }
  return "";
}

}  // namespace

std::vector<std::byte> reference_blob(const References& refs,
                                      const svc::JobSpec& spec) {
  std::vector<std::byte> blob;
  switch (spec.kind) {
    case svc::JobKind::kSandpile:
      return sandpile::detail::encode_result(refs.sandpile, true, 0);
    case svc::JobKind::kDmr: {
      const WordCounts& counts = refs.dmr.at(spec.dmr.seed);
      net::append_u32(blob, static_cast<std::uint32_t>(counts.size()));
      for (const auto& [word, count] : counts) {
        svc::append_string(blob, word);
        net::append_u64(blob, count);
      }
      return blob;
    }
    case svc::JobKind::kWfsim:
      net::append_u32(blob, static_cast<std::uint32_t>(refs.wfsim.size()));
      for (const svc::WfsimRow& row : refs.wfsim)
        for (const double v : {row.fraction, row.makespan_s, row.total_gco2})
          net::append_u64(blob, std::bit_cast<std::uint64_t>(v));
      return blob;
  }
  return blob;
}

std::string check_result(const References& refs, const svc::JobSpec& spec,
                         const std::vector<std::byte>& blob) {
  try {
    switch (spec.kind) {
      case svc::JobKind::kSandpile: return check_sandpile(refs, spec, blob);
      case svc::JobKind::kDmr: return check_dmr(refs, spec, blob);
      case svc::JobKind::kWfsim: return check_wfsim(refs, spec, blob);
    }
    return "unknown job kind";
  } catch (const std::exception& e) {
    return std::string("undecodable result: ") + e.what();
  }
}

}  // namespace perfbench

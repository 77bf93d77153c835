// Result oracle: every DONE blob the daemon returns is decoded and compared
// with a reference computed in the benchmark process during setup.
//
//   sandpile — the grid equals stabilize_reference() of the same center pile;
//   dmr      — counts sum to `words` and equal an in-process mr::Job word
//              count over the same regenerated corpus;
//   wfsim    — every row is bit-equal to a direct wf::simulate() call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/job.hpp"
#include "sandpile/field.hpp"
#include "svc/job.hpp"
#include "svc/runner.hpp"

namespace perfbench {

using WordCounts = std::vector<std::pair<std::string, std::uint64_t>>;

struct References {
  peachy::sandpile::Field sandpile{1, 1};
  std::map<std::uint64_t, WordCounts> dmr;  ///< corpus seed -> sorted counts
  std::vector<peachy::svc::WfsimRow> wfsim;
};

/// References for `sandpile`/`wfsim` specs and every dmr corpus seed.
References build_references(const peachy::svc::JobSpec& sandpile,
                            const peachy::svc::JobSpec& dmr,
                            const std::vector<std::uint64_t>& dmr_seeds,
                            const peachy::svc::JobSpec& wfsim);

/// The word-count phases of a dmr job: split a line on spaces, emit 1 per
/// word; sum the counts of one word (combiner and reducer).
void map_words(const int& line_no, const std::string& line,
               peachy::mr::Emitter<std::string, std::uint64_t>& out);
void sum_counts(const std::string& word,
                const std::vector<std::uint64_t>& counts,
                peachy::mr::Emitter<std::string, std::uint64_t>& out);

/// In-process mr::Job word count over `corpus`, sorted by word.
WordCounts reference_word_count(
    const std::vector<std::pair<int, std::string>>& corpus,
    const peachy::svc::DmrParams& p);

/// The sweep rows of a wfsim job computed by direct wf::simulate calls.
std::vector<peachy::svc::WfsimRow> reference_sweep(
    const peachy::svc::WfsimParams& p);

/// wf::simulate of sweep step `step` of `p`, as the runner's ranks call it.
peachy::svc::WfsimRow simulate_step(const peachy::svc::WfsimParams& p,
                                    std::uint32_t step);

/// A result blob in the daemon's format (svc/runner.hpp) that
/// check_result() accepts for `spec`; sandpile rounds are left at 0.
std::vector<std::byte> reference_blob(const References& refs,
                                      const peachy::svc::JobSpec& spec);

/// "" when `blob` is the correct result of `spec`, else why it is not.
/// Never throws: an undecodable blob is a wrong result.
std::string check_result(const References& refs,
                         const peachy::svc::JobSpec& spec,
                         const std::vector<std::byte>& blob);

}  // namespace perfbench

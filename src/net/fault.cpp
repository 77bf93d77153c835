#include "net/fault.hpp"

#include <charconv>

#include "core/error.hpp"

namespace peachy::net {

std::string FaultPlan::encode() const { return std::to_string(sever_after); }

// The encoding travels through one environment variable into exec'd
// workers, so decode() treats it as untrusted input: a truncated or
// hand-edited plan fails loudly instead of silently running a worker with
// no faults while the launcher injects them.
FaultPlan FaultPlan::decode(const std::string& text) {
  FaultPlan plan;
  const auto [ptr, ec] = std::from_chars(
      text.data(), text.data() + text.size(), plan.sever_after);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size())
    throw Error("bad fault plan encoding \"" + text +
                "\": sever_after is not an integer");
  if (plan.sever_after < -1)
    throw Error("bad fault plan encoding \"" + text +
                "\": sever_after must be >= -1");
  return plan;
}

}  // namespace peachy::net

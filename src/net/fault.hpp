// Fault injection for the TCP transport: severing links on cue.
//
// The transport never reconnects, so the one fault worth injecting is the
// one the runtime must recover from: a link that dies mid-run. A plan names
// the data frame after which every link is hard-closed; each direction of
// each link counts its own frames (the frame's `seq`), so the sever point
// is a pure function of the plan and the message pattern, never of thread
// or process scheduling. The send that reaches it shuts the socket down
// and throws PeerDied, and the peer sees the connection drop without a
// GOODBYE. Supervised worlds (mpp::Resilience) restart from a checkpoint.
#pragma once

#include <cstdint>
#include <string>

namespace peachy::net {

/// When to sever. Inactive unless `sever_after` >= 0.
struct FaultPlan {
  std::int64_t sever_after = -1;  ///< hard-close after this many frames

  bool active() const { return sever_after >= 0; }

  /// Whether the link's data frame number `frame` (0-based, one count per
  /// direction) is the sever point or past it.
  bool severs(std::uint64_t frame) const {
    return active() && frame >= static_cast<std::uint64_t>(sever_after);
  }

  /// Round-trips through a string (one integer) so exec'd workers inherit
  /// the plan via one environment variable.
  std::string encode() const;
  static FaultPlan decode(const std::string& text);
};

}  // namespace peachy::net

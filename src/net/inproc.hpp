// In-process transport: ranks are threads, messages are memcpys into a
// per-rank mailbox under a mutex. This is the original mpp substrate — it
// preserves MPI's matching semantics exactly but costs nothing to "send",
// which is precisely why the TCP transport exists (ISSUE: the ghost-cell
// trade-off needs real communication costs). Kept as the fast default for
// tests and for machines where sockets are unavailable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"

namespace peachy::net {

/// The shared mailbox state behind one in-process world. Create one hub,
/// then one InprocTransport per rank pointing at it.
class InprocHub {
 public:
  explicit InprocHub(int ranks);

  int size() const { return ranks_; }

 private:
  friend class InprocTransport;

  struct Delivery {
    std::vector<std::byte> payload;
    MsgInfo info;
  };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    // FIFO per (src, tag) channel — MPI's non-overtaking rule.
    std::map<std::pair<int, int>, std::deque<Delivery>> channels;
    // gone[src]: rank src shut down, so an empty (src, *) channel stays
    // empty for good.
    std::vector<bool> gone;
  };

  int ranks_;
  std::vector<Mailbox> mailboxes_;
};

class InprocTransport final : public Transport {
 public:
  InprocTransport(std::shared_ptr<InprocHub> hub, int rank);

  int rank() const override { return rank_; }
  int size() const override { return hub_->size(); }
  using Transport::recv;  // the no-info overload forwards to the full one
  void send(int dest, int tag, const void* data, std::size_t bytes) override;
  std::vector<std::byte> recv(int src, int tag, MsgInfo* info) override;
  bool try_recv(int src, int tag, std::vector<std::byte>& out,
                MsgInfo* info = nullptr) override;
  /// Marks this rank gone in every mailbox and wakes every waiter: a recv
  /// from it that finds its channel empty throws PeerDied, as over tcp.
  void shutdown() override;

 private:
  std::shared_ptr<InprocHub> hub_;
  int rank_;
};

}  // namespace peachy::net

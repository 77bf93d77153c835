#include "net/inproc.hpp"

#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "net/socket.hpp"
#include "obs/cluster.hpp"

namespace peachy::net {

Transport::~Transport() = default;

InprocHub::InprocHub(int ranks)
    : ranks_(ranks), mailboxes_(ranks > 0 ? static_cast<std::size_t>(ranks) : 0) {
  PEACHY_REQUIRE(ranks >= 1, "world needs >= 1 rank, got " << ranks);
  for (Mailbox& box : mailboxes_) box.gone.assign(mailboxes_.size(), false);
}

InprocTransport::InprocTransport(std::shared_ptr<InprocHub> hub, int rank)
    : hub_(std::move(hub)), rank_(rank) {}

void InprocTransport::send(int dest, int tag, const void* data,
                           std::size_t bytes) {
  InprocHub::Delivery delivery;
  delivery.payload.resize(bytes);
  if (bytes) std::memcpy(delivery.payload.data(), data, bytes);
  // Same propagation rule as the tcp backend: a message sent under an
  // active trace context carries it (obs-gated so the disabled path costs
  // one relaxed load).
  if (obs::enabled()) {
    const obs::cluster::TraceContext ctx = obs::cluster::current();
    if (ctx.valid()) {
      delivery.info.trace_id = ctx.trace_id;
      delivery.info.span_id = ctx.span_id;
      delivery.info.has_ctx = true;
    }
  }
  auto& box = hub_->mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard lock(box.mutex);
    box.channels[{rank_, tag}].push_back(std::move(delivery));
  }
  box.cv.notify_all();
}

std::vector<std::byte> InprocTransport::recv(int src, int tag, MsgInfo* info) {
  auto& box = hub_->mailboxes_[static_cast<std::size_t>(rank_)];
  std::unique_lock lock(box.mutex);
  auto& channel = box.channels[{src, tag}];
  box.cv.wait(lock, [&] {
    return !channel.empty() || box.gone[static_cast<std::size_t>(src)];
  });
  if (channel.empty())
    throw PeerDied(rank_, src, "peer shut down with this recv pending");
  InprocHub::Delivery delivery = std::move(channel.front());
  channel.pop_front();
  if (info) *info = delivery.info;
  return std::move(delivery.payload);
}

bool InprocTransport::try_recv(int src, int tag, std::vector<std::byte>& out,
                               MsgInfo* info) {
  auto& box = hub_->mailboxes_[static_cast<std::size_t>(rank_)];
  std::lock_guard lock(box.mutex);
  auto& channel = box.channels[{src, tag}];
  if (channel.empty()) return false;
  InprocHub::Delivery delivery = std::move(channel.front());
  channel.pop_front();
  if (info) *info = delivery.info;
  out = std::move(delivery.payload);
  return true;
}

void InprocTransport::shutdown() {
  for (InprocHub::Mailbox& box : hub_->mailboxes_) {
    {
      std::lock_guard lock(box.mutex);
      box.gone[static_cast<std::size_t>(rank_)] = true;
    }
    box.cv.notify_all();
  }
}

}  // namespace peachy::net

#include "src/sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace icg {

Network::Network(EventLoop* loop, const Topology* topology, uint64_t seed, double jitter_sigma)
    : loop_(loop), topology_(topology), jitter_sigma_(jitter_sigma), rng_(seed) {
  assert(loop != nullptr && topology != nullptr);
}

SimDuration Network::SampleDelay(NodeId from, NodeId to) {
  if (from == to) {
    return kLocalDelay;
  }
  const SimDuration base = topology_->RttBetween(from, to) / 2;
  if (jitter_sigma_ <= 0.0) {
    return base;
  }
  const double jittered = rng_.NextLognormal(static_cast<double>(base), jitter_sigma_);
  return std::max<SimDuration>(kLocalDelay, static_cast<SimDuration>(std::llround(jittered)));
}

void Network::Send(NodeId from, NodeId to, int64_t bytes, EventLoop::Task on_delivery) {
  assert(bytes >= 0);
  auto& stats = sent_[{from, to}];
  stats.bytes += bytes;
  stats.messages += 1;
  total_bytes_ += bytes;

  if (crashed_.contains(from) || crashed_.contains(to) ||
      partitioned_.contains(OrderedPair(from, to)) ||
      (loss_probability_ > 0.0 && rng_.NextBool(loss_probability_))) {
    dropped_messages_ += 1;
    return;
  }
  // FIFO link: never deliver before an earlier message on the same directed link.
  SimTime deliver_at = loop_->Now() + SampleDelay(from, to);
  SimTime& last = last_delivery_[{from, to}];
  deliver_at = std::max(deliver_at, last);
  last = deliver_at;
  loop_->ScheduleAt(deliver_at, std::move(on_delivery));
}

const LinkStats& Network::Sent(NodeId from, NodeId to) const {
  static const LinkStats kEmpty;
  auto it = sent_.find({from, to});
  return it == sent_.end() ? kEmpty : it->second;
}

int64_t Network::BytesBetween(NodeId a, NodeId b) const {
  return Sent(a, b).bytes + Sent(b, a).bytes;
}

int64_t Network::MessagesBetween(NodeId a, NodeId b) const {
  return Sent(a, b).messages + Sent(b, a).messages;
}

void Network::ResetStats() {
  sent_.clear();
  total_bytes_ = 0;
  dropped_messages_ = 0;
}

}  // namespace icg

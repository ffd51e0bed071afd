// Message-passing network with WAN latencies, jitter, byte accounting, and failure
// injection (crashes, partitions, probabilistic loss).
//
// A message is a closure executed at the destination after the simulated propagation
// delay. Byte sizes are declared by the sender so benchmarks can report bandwidth per
// operation exactly as the paper does (client<->replica kB/op).
//
// One network lives on one EventLoop: every send, jitter draw and FIFO clamp happens
// in that loop's deterministic event order, so a run is a pure function of its seed.
#ifndef ICG_SIM_NETWORK_H_
#define ICG_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/event_loop.h"
#include "src/sim/topology.h"

namespace icg {

// Traffic accounting for one direction of one node pair.
struct LinkStats {
  int64_t bytes = 0;
  int64_t messages = 0;
};

class Network {
 public:
  // `jitter_sigma` is the log-space deviation of the lognormal latency multiplier; 0
  // disables jitter entirely (useful for exact-latency unit tests).
  Network(EventLoop* loop, const Topology* topology, uint64_t seed, double jitter_sigma = 0.08);

  // Sends `bytes` from `from` to `to`; runs `on_delivery` at the destination after the
  // propagation delay. Messages to self incur kLocalDelay. Dropped silently if either
  // endpoint is crashed, the pair is partitioned, or the loss dice say so.
  //
  // Links are FIFO, like the TCP connections real systems run on: jitter can stretch
  // delays but a message never overtakes an earlier message on the same directed link.
  // Zab (and the CZK speculative-promise ordering) depend on this, exactly as real
  // ZooKeeper depends on TCP ordering.
  void Send(NodeId from, NodeId to, int64_t bytes, EventLoop::Task on_delivery);

  // Computes the one-way delay that a message sent now would experience (inclusive of
  // jitter). Exposed for tests and for latency-prediction logic; draws from the same
  // RNG stream as Send.
  SimDuration SampleDelay(NodeId from, NodeId to);

  // --- Failure injection ---------------------------------------------------------------
  void Crash(NodeId node) { crashed_.insert(node); }
  void Restart(NodeId node) { crashed_.erase(node); }
  bool IsCrashed(NodeId node) const { return crashed_.contains(node); }

  // Cuts both directions between a and b.
  void Partition(NodeId a, NodeId b) { partitioned_.insert(OrderedPair(a, b)); }
  void Heal(NodeId a, NodeId b) { partitioned_.erase(OrderedPair(a, b)); }

  // Probability in [0,1] that any given message is lost.
  void SetLossProbability(double p) { loss_probability_ = p; }

  // --- Accounting ---------------------------------------------------------------------
  const LinkStats& Sent(NodeId from, NodeId to) const;
  // Total bytes exchanged between the pair, both directions.
  int64_t BytesBetween(NodeId a, NodeId b) const;
  int64_t MessagesBetween(NodeId a, NodeId b) const;
  int64_t total_bytes() const { return total_bytes_; }
  int64_t dropped_messages() const { return dropped_messages_; }
  void ResetStats();

  EventLoop* loop() const { return loop_; }
  const Topology* topology() const { return topology_; }

 private:
  static std::pair<NodeId, NodeId> OrderedPair(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  EventLoop* loop_;
  const Topology* topology_;
  double jitter_sigma_;
  double loss_probability_ = 0.0;
  Rng rng_;

  std::set<NodeId> crashed_;
  std::set<std::pair<NodeId, NodeId>> partitioned_;

  std::map<std::pair<NodeId, NodeId>, LinkStats> sent_;         // keyed by (from, to)
  std::map<std::pair<NodeId, NodeId>, SimTime> last_delivery_;  // FIFO enforcement
  int64_t total_bytes_ = 0;
  int64_t dropped_messages_ = 0;

  static constexpr SimDuration kLocalDelay = Micros(50);
};

}  // namespace icg

#endif  // ICG_SIM_NETWORK_H_

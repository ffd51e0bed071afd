// Wiring for a quorum-store deployment: one replica per region, clients anywhere.
#ifndef ICG_KVSTORE_CLUSTER_H_
#define ICG_KVSTORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kvstore/partitioner.h"
#include "src/kvstore/replica.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"

namespace icg {

// A client endpoint bound to one coordinator replica, as in the paper's experiments
// (e.g., the IRL client contacting the FRK replica). Byte accounting on the
// client<->coordinator link is what Figure 8 reports.
class KvClient {
 public:
  KvClient(Network* network, NodeId id, KvReplica* coordinator);

  // One request per call, in either wire shape; the request's shape sets the bytes on
  // the client link.
  void Read(ReadRequest request, const ReadOptions& options, KvResponseFn respond);
  // Each write's `version.timestamp` is its client-assigned LWW stamp (0 = let the
  // coordinator stamp at apply time); client stamps keep one writer's program order
  // intact across coordinator handoffs during live rebalancing.
  void Write(WriteRequest request, KvResponseFn respond);

  NodeId id() const { return id_; }
  NodeId coordinator_id() const { return coordinator_->id(); }

  // Client<->coordinator traffic in both directions (application bytes).
  int64_t LinkBytes() const;
  int64_t LinkMessages() const;

 private:
  Network* network_;
  NodeId id_;
  KvReplica* coordinator_;
};

class KvCluster {
 public:
  // Adds one replica node per entry of `replica_regions` to the topology and wires the
  // peer mesh. `config` must outlive the cluster.
  KvCluster(Network* network, Topology* topology, const KvConfig* config,
            const std::vector<Region>& replica_regions);

  KvReplica* ReplicaIn(Region region);
  const std::vector<std::unique_ptr<KvReplica>>& replicas() const { return replicas_; }
  const Partitioner& partitioner() const { return *partitioner_; }

  // Creates a client located in `client_region`, coordinated by the replica in
  // `coordinator_region`.
  std::unique_ptr<KvClient> MakeClient(Region client_region, Region coordinator_region);

  // Installs `key -> value` consistently on every replica (dataset preloading).
  void Preload(const std::string& key, const std::string& value);

 private:
  Network* network_;
  Topology* topology_;
  std::vector<std::unique_ptr<KvReplica>> replicas_;
  std::unique_ptr<Partitioner> partitioner_;
};

}  // namespace icg

#endif  // ICG_KVSTORE_CLUSTER_H_

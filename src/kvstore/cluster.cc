#include "src/kvstore/cluster.h"

#include <cassert>
#include <utility>

namespace icg {

KvClient::KvClient(Network* network, NodeId id, KvReplica* coordinator)
    : network_(network), id_(id), coordinator_(coordinator) {
  assert(coordinator_ != nullptr);
}

void KvClient::Read(ReadRequest request, const ReadOptions& options, KvResponseFn respond) {
  const int64_t bytes = request.WireBytes();
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, request = std::move(request), options,
                  respond = std::move(respond)]() mutable {
                   coordinator->CoordinateRead(self, std::move(request), options,
                                               std::move(respond));
                 });
}

void KvClient::Write(WriteRequest request, KvResponseFn respond) {
  int64_t bytes = request.WireBytes();
  for (const KeyWrite& write : request.writes) {
    if (write.version.timestamp != 0) {
      bytes += 8;  // the client-assigned LWW stamp rides the wire too
    }
  }
  KvReplica* coordinator = coordinator_;
  const NodeId self = id_;
  network_->Send(id_, coordinator_->id(), bytes,
                 [coordinator, self, request = std::move(request),
                  respond = std::move(respond)]() mutable {
                   coordinator->CoordinateWrite(self, std::move(request), std::move(respond));
                 });
}

int64_t KvClient::LinkBytes() const { return network_->BytesBetween(id_, coordinator_->id()); }

int64_t KvClient::LinkMessages() const {
  return network_->MessagesBetween(id_, coordinator_->id());
}

KvCluster::KvCluster(Network* network, Topology* topology, const KvConfig* config,
                     const std::vector<Region>& replica_regions)
    : network_(network), topology_(topology) {
  std::vector<NodeId> ids;
  for (const Region region : replica_regions) {
    const NodeId id = topology->AddNode(region, std::string("kv-") + RegionName(region));
    replicas_.push_back(std::make_unique<KvReplica>(network, id, config,
                                                    std::string("kv-") + RegionName(region)));
    ids.push_back(id);
  }
  partitioner_ = std::make_unique<Partitioner>(ids, config->replication_factor);
  for (auto& replica : replicas_) {
    std::vector<KvReplica*> peers;
    for (auto& other : replicas_) {
      if (other.get() != replica.get()) {
        peers.push_back(other.get());
      }
    }
    replica->SetPeers(std::move(peers));
  }
}

KvReplica* KvCluster::ReplicaIn(Region region) {
  for (auto& replica : replicas_) {
    if (topology_->RegionOf(replica->id()) == region) {
      return replica.get();
    }
  }
  return nullptr;
}

std::unique_ptr<KvClient> KvCluster::MakeClient(Region client_region, Region coordinator_region) {
  KvReplica* coordinator = ReplicaIn(coordinator_region);
  assert(coordinator != nullptr);
  const NodeId id =
      topology_->AddNode(client_region, std::string("client-") + RegionName(client_region));
  return std::make_unique<KvClient>(network_, id, coordinator);
}

void KvCluster::Preload(const std::string& key, const std::string& value) {
  // Version {1, primary} predates any runtime write (runtime timestamps are virtual
  // times >= startup), so preloaded data loses LWW ties to every real write.
  const Version version{1, partitioner_->PrimaryFor(key)};
  for (auto& replica : replicas_) {
    replica->LocalPut(key, value, version);
  }
}

}  // namespace icg

#include "src/stores/causal_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {

CausalReplica::CausalReplica(Network* network, NodeId id, const CausalConfig* config,
                             const std::string& name)
    : network_(network), id_(id), config_(config), service_(network->loop(), name) {}

void CausalReplica::SetOriginIndex(int index, int num_replicas) {
  origin_index_ = index;
  applied_clock_.assign(static_cast<size_t>(num_replicas), 0);
}

void CausalReplica::HandleRead(NodeId client_id, ReadRequest request,
                               CausalResponseFn respond) {
  const SimDuration service =
      config_->read_service +
      static_cast<SimDuration>(std::max<size_t>(request.keys.size(), 1) - 1) *
          config_->multi_per_key_service;
  service_.Submit(service, [this, client_id, request = std::move(request),
                            respond = std::move(respond)]() mutable {
    OpResult result =
        PackRead(request.shape, request.keys.size(), [&](size_t i) -> std::optional<OpResult> {
          auto it = storage_.find(request.keys[i]);
          if (it == storage_.end()) {
            return std::nullopt;
          }
          OpResult hit;
          hit.found = true;
          hit.value = it->second.value;
          hit.version = it->second.version;
          return hit;
        });
    const int64_t bytes = result.WireBytes();
    network_->Send(id_, client_id, bytes,
                   [respond = std::move(respond), result = std::move(result)]() mutable {
                     respond(std::move(result));
                   });
  });
}

// Applies one locally originated write and replicates it with the dependency snapshot:
// everything applied here happens-before this write, so remote replicas must reach this
// clock before applying it.
Version CausalReplica::ApplyLocalWrite(const std::string& key, const std::string& value) {
  lamport_++;
  const Version version{lamport_, id_};
  const int64_t origin_seq = next_origin_seq_++;
  storage_[key] = Entry{value, version};
  applied_clock_[static_cast<size_t>(origin_index_)] = origin_seq;

  const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                        static_cast<int64_t>(value.size()) +
                        static_cast<int64_t>(applied_clock_.size()) * 8;
  for (CausalReplica* peer : peers_) {
    auto replicate = [peer, origin = origin_index_, origin_seq, deps = applied_clock_,
                      key = key, value = value, version]() mutable {
      peer->HandleReplicated(origin, origin_seq, std::move(deps), std::move(key),
                             std::move(value), version);
    };
    static_assert(EventLoop::Task::StoresInline<decltype(replicate)>(),
                  "a replication send must not allocate");
    network_->Send(id_, peer->id(), bytes, std::move(replicate));
  }
  return version;
}

void CausalReplica::HandleWrite(NodeId client_id, WriteRequest request,
                                CausalResponseFn respond) {
  if (request.writes.empty()) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("empty or mismatched write request"));
    });
    return;
  }
  const SimDuration service =
      config_->write_service +
      static_cast<SimDuration>(request.writes.size() - 1) * config_->multi_per_key_service;
  service_.Submit(service, [this, client_id, request = std::move(request),
                            respond = std::move(respond)]() mutable {
    // Entries apply in order: each write's dependency snapshot includes its request
    // predecessors, so remote replicas preserve a batch's internal program order too.
    for (KeyWrite& write : request.writes) {
      write.version = ApplyLocalWrite(write.key, write.value);
    }
    network_->Send(id_, client_id, kResponseHeaderBytes,
                   [respond = std::move(respond),
                    ack = PackWriteAck(request.shape, request.writes)]() mutable {
                     respond(std::move(ack));
                   });
  });
}

void CausalReplica::HandleReplicated(int origin, int64_t origin_seq, std::vector<int64_t> deps,
                                     std::string key, std::string value, Version version) {
  auto apply = [this, origin, origin_seq, deps = std::move(deps), key = std::move(key),
                value = std::move(value), version]() mutable {
    pending_.push_back(PendingWrite{origin, origin_seq, std::move(deps), std::move(key),
                                    std::move(value), version});
    TryApplyPending();
  };
  static_assert(EventLoop::Task::StoresInline<ServiceQueue::Job<decltype(apply)>>(),
                "a replicated apply job must not allocate");
  service_.Submit(config_->apply_service, std::move(apply));
}

bool CausalReplica::DepsSatisfied(const PendingWrite& write) const {
  // The write itself accounts for one slot of its origin's clock: dependency on its own
  // origin is "everything the origin applied before it", i.e. origin_seq - 1.
  for (size_t i = 0; i < applied_clock_.size(); ++i) {
    const int64_t needed = (static_cast<int>(i) == write.origin)
                               ? write.origin_seq - 1
                               : write.deps[i];
    if (applied_clock_[i] < needed) {
      return false;
    }
  }
  // Per-origin FIFO: apply origin's writes in sequence order.
  return applied_clock_[static_cast<size_t>(write.origin)] == write.origin_seq - 1;
}

void CausalReplica::ApplyWrite(const PendingWrite& write) {
  auto it = storage_.find(write.key);
  if (it == storage_.end() || it->second.version < write.version) {
    storage_[write.key] = Entry{write.value, write.version};
  }
  lamport_ = std::max(lamport_, write.version.timestamp);
  applied_clock_[static_cast<size_t>(write.origin)] = write.origin_seq;
}

void CausalReplica::TryApplyPending() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (DepsSatisfied(*it)) {
        ApplyWrite(*it);
        pending_.erase(it);
        progressed = true;
        break;  // iterators invalidated; rescan
      }
    }
  }
}

std::optional<std::string> CausalReplica::LocalGet(const std::string& key) const {
  auto it = storage_.find(key);
  if (it == storage_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void CausalReplica::LocalPut(const std::string& key, std::string value, Version version) {
  storage_[key] = Entry{std::move(value), version};
}

std::optional<OpResult> ClientCache::Get(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_++;
    return std::nullopt;
  }
  hits_++;
  return it->second;
}

void ClientCache::Put(const std::string& key, const OpResult& result) {
  if (entries_.find(key) == entries_.end()) {
    lru_.push_back(key);
  }
  entries_[key] = result;
  EvictIfNeeded();
}

void ClientCache::Refresh(const std::string& key, const OpResult& result) {
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.found && it->second.version > result.version) {
    return;  // cached entry is fresher; a reordered weaker view must not regress it
  }
  Put(key, result);
}

void ClientCache::Invalidate(const std::string& key) { entries_.erase(key); }

void ClientCache::Clear() {
  entries_.clear();
  lru_.clear();
}

void ClientCache::EvictIfNeeded() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.front());
    lru_.pop_front();
  }
}

CausalClient::CausalClient(Network* network, NodeId id, CausalReplica* replica)
    : network_(network), id_(id), replica_(replica) {
  assert(replica_ != nullptr);
}

void CausalClient::Read(ReadRequest request, CausalResponseFn respond) {
  const int64_t bytes = request.WireBytes();
  CausalReplica* replica = replica_;
  const NodeId self = id_;
  network_->Send(id_, replica_->id(), bytes,
                 [replica, self, request = std::move(request),
                  respond = std::move(respond)]() mutable {
                   replica->HandleRead(self, std::move(request), std::move(respond));
                 });
}

void CausalClient::Write(WriteRequest request, CausalResponseFn respond) {
  const int64_t bytes = request.WireBytes();
  CausalReplica* replica = replica_;
  const NodeId self = id_;
  network_->Send(id_, replica_->id(), bytes,
                 [replica, self, request = std::move(request),
                  respond = std::move(respond)]() mutable {
                   replica->HandleWrite(self, std::move(request), std::move(respond));
                 });
}

CausalCluster::CausalCluster(Network* network, Topology* topology, const CausalConfig* config,
                             const std::vector<Region>& regions)
    : network_(network), topology_(topology) {
  for (const Region region : regions) {
    const std::string name = std::string("causal-") + RegionName(region);
    const NodeId id = topology->AddNode(region, name);
    replicas_.push_back(std::make_unique<CausalReplica>(network, id, config, name));
  }
  for (size_t i = 0; i < replicas_.size(); ++i) {
    std::vector<CausalReplica*> peers;
    for (auto& other : replicas_) {
      if (other.get() != replicas_[i].get()) {
        peers.push_back(other.get());
      }
    }
    replicas_[i]->SetPeers(std::move(peers));
    replicas_[i]->SetOriginIndex(static_cast<int>(i), static_cast<int>(regions.size()));
  }
}

CausalReplica* CausalCluster::ReplicaIn(Region region) {
  for (auto& replica : replicas_) {
    if (topology_->RegionOf(replica->id()) == region) {
      return replica.get();
    }
  }
  return nullptr;
}

std::unique_ptr<CausalClient> CausalCluster::MakeClient(Region client_region,
                                                        Region replica_region) {
  CausalReplica* replica = ReplicaIn(replica_region);
  assert(replica != nullptr);
  const NodeId id =
      topology_->AddNode(client_region, std::string("causalcli-") + RegionName(client_region));
  return std::make_unique<CausalClient>(network_, id, replica);
}

void CausalCluster::Preload(const std::string& key, const std::string& value) {
  for (auto& replica : replicas_) {
    replica->LocalPut(key, value, Version{1, replicas_.front()->id()});
  }
}

}  // namespace icg

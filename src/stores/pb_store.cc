#include "src/stores/pb_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace icg {

PbNode::PbNode(Network* network, NodeId id, const PbConfig* config, const std::string& name)
    : network_(network), id_(id), config_(config), service_(network->loop(), name) {}

void PbNode::HandleRead(NodeId client_id, ReadRequest request, PbResponseFn respond) {
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

void PbNode::HandleWrite(NodeId client_id, WriteRequest request, PbResponseFn respond) {
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
    for (KeyWrite& write : request.writes) {
      write_seq_ = std::max(static_cast<uint64_t>(network_->loop()->Now()), write_seq_ + 1);
      write.version = Version{static_cast<SimTime>(write_seq_), id_};
      storage_[write.key] = Entry{write.value, write.version};
    }
    network_->Send(id_, client_id, kResponseHeaderBytes,
                   [respond = std::move(respond),
                    ack = PackWriteAck(request.shape, request.writes)]() mutable {
                     respond(std::move(ack));
                   });
    for (const KeyWrite& write : request.writes) {
      for (PbNode* backup : backups_) {
        const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(write.key.size()) +
                              static_cast<int64_t>(write.value.size());
        auto replicate = [backup, key = write.key, value = write.value,
                          version = write.version]() mutable {
          backup->ApplyReplicated(std::move(key), std::move(value), version);
        };
        static_assert(EventLoop::Task::StoresInline<decltype(replicate)>(),
                      "a replication send must not allocate");
        network_->Send(id_, backup->id(), bytes, std::move(replicate));
      }
    }
  });
}

void PbNode::ApplyReplicated(std::string key, std::string value, Version version) {
  auto apply = [this, key = std::move(key), value = std::move(value), version]() mutable {
    auto it = storage_.find(key);
    if (it == storage_.end() || it->second.version < version) {
      storage_[key] = Entry{std::move(value), version};
    }
  };
  static_assert(EventLoop::Task::StoresInline<ServiceQueue::Job<decltype(apply)>>(),
                "a replicated apply job must not allocate");
  service_.Submit(config_->apply_service, std::move(apply));
}

std::optional<std::string> PbNode::LocalGet(const std::string& key) const {
  auto it = storage_.find(key);
  if (it == storage_.end()) {
    return std::nullopt;
  }
  return it->second.value;
}

void PbNode::LocalPut(const std::string& key, std::string value, Version version) {
  storage_[key] = Entry{std::move(value), version};
}

PbClient::PbClient(Network* network, NodeId id, PbNode* primary, PbNode* backup)
    : network_(network), id_(id), primary_(primary), backup_(backup) {
  assert(primary_ != nullptr && backup_ != nullptr);
}

void PbClient::ReadFrom(PbNode* node, ReadRequest request, PbResponseFn respond) {
  const int64_t bytes = request.WireBytes();
  const NodeId self = id_;
  network_->Send(id_, node->id(), bytes,
                 [node, self, request = std::move(request),
                  respond = std::move(respond)]() mutable {
                   node->HandleRead(self, std::move(request), std::move(respond));
                 });
}

void PbClient::ReadWeak(ReadRequest request, PbResponseFn respond) {
  ReadFrom(backup_, std::move(request), std::move(respond));
}

void PbClient::ReadStrong(ReadRequest request, PbResponseFn respond) {
  ReadFrom(primary_, std::move(request), std::move(respond));
}

void PbClient::Write(WriteRequest request, PbResponseFn respond) {
  const int64_t bytes = request.WireBytes();
  PbNode* primary = primary_;
  const NodeId self = id_;
  network_->Send(id_, primary_->id(), bytes,
                 [primary, self, request = std::move(request),
                  respond = std::move(respond)]() mutable {
                   primary->HandleWrite(self, std::move(request), std::move(respond));
                 });
}

PbCluster::PbCluster(Network* network, Topology* topology, const PbConfig* config,
                     const std::vector<Region>& regions)
    : network_(network), topology_(topology) {
  assert(regions.size() >= 2 && "need a primary and at least one backup");
  for (size_t i = 0; i < regions.size(); ++i) {
    const std::string name =
        std::string(i == 0 ? "pb-primary-" : "pb-backup-") + RegionName(regions[i]);
    const NodeId id = topology->AddNode(regions[i], name);
    nodes_.push_back(std::make_unique<PbNode>(network, id, config, name));
  }
  std::vector<PbNode*> backups;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    backups.push_back(nodes_[i].get());
  }
  nodes_.front()->SetBackups(std::move(backups));
}

PbNode* PbCluster::NodeIn(Region region) {
  for (auto& node : nodes_) {
    if (topology_->RegionOf(node->id()) == region) {
      return node.get();
    }
  }
  return nullptr;
}

std::unique_ptr<PbClient> PbCluster::MakeClient(Region client_region, Region backup_region) {
  PbNode* backup = NodeIn(backup_region);
  assert(backup != nullptr && backup != primary() && "backup_region must host a backup");
  const NodeId id =
      topology_->AddNode(client_region, std::string("pbcli-") + RegionName(client_region));
  return std::make_unique<PbClient>(network_, id, primary(), backup);
}

void PbCluster::Preload(const std::string& key, const std::string& value) {
  for (auto& node : nodes_) {
    node->LocalPut(key, value, Version{1, primary()->id()});
  }
}

}  // namespace icg

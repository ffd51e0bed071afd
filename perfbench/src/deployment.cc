#include "perfbench/src/deployment.h"

#include <algorithm>
#include <utility>

#include "perfbench/src/load.h"
#include "perfbench/src/stats.h"
#include "src/harness/executors.h"

namespace perfbench {

using icg::Region;

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const WorkloadKind k :
       {WorkloadKind::kYcsbBIcg, WorkloadKind::kYcsbABatched, WorkloadKind::kCzkQueue}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kYcsbBIcg:
      return "ycsb-b-icg";
    case WorkloadKind::kYcsbABatched:
      return "ycsb-a-batched";
    case WorkloadKind::kCzkQueue:
      return "czk-queue";
  }
  return "?";
}

icg::WorkloadConfig YcsbConfigFor(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kYcsbBIcg:
      return icg::WorkloadConfig::YcsbB(icg::RequestDistribution::kZipfian, 10000);
    case WorkloadKind::kYcsbABatched:
      return icg::WorkloadConfig::YcsbA(icg::RequestDistribution::kUniform, 100000);
    case WorkloadKind::kCzkQueue: {
      icg::WorkloadConfig config =
          icg::WorkloadConfig::YcsbA(icg::RequestDistribution::kUniform, Deployment::kQueues);
      config.field_length = 32;
      return config;
    }
  }
  return {};
}

Deployment::Deployment(WorkloadKind kind, uint64_t seed, bool traced, int64_t queue_depth,
                       SetupTimes& times)
    : kind_(kind), queue_depth_(queue_depth) {
  const double build_start = CpuSeconds();
  world_ = std::make_unique<icg::SimWorld>(MixSeed(seed, 0x776f726c64 /* "world" */));
  if (traced) {
    span_log_ = std::make_unique<SpanLog>(&world_->loop());
  }
  switch (kind) {
    case WorkloadKind::kYcsbBIcg: {
      icg::CassandraBindingConfig binding;
      binding.strong_read_quorum = 2;
      binding.confirmations = false;
      cassandra_.emplace(icg::MakeCassandraStack(*world_, icg::KvConfig{}, binding,
                                                 Region::kIreland, Region::kFrankfurt));
      cassandra_extra_.push_back(icg::AddCassandraClient(*world_, *cassandra_, binding,
                                                         Region::kFrankfurt, Region::kVirginia));
      cassandra_extra_.push_back(icg::AddCassandraClient(*world_, *cassandra_, binding,
                                                         Region::kVirginia, Region::kIreland));
      AddClient(cassandra_->binding, {});
      kv_links_.push_back(cassandra_->kv_client.get());
      for (const auto& endpoint : cassandra_extra_) {
        AddClient(endpoint.binding, {});
        kv_links_.push_back(endpoint.kv_client.get());
      }
      for (const auto& replica : cassandra_->cluster->replicas()) {
        replicas_.push_back(replica.get());
      }
      coordinators_ = replicas_;  // each client coordinates through its own replica
      break;
    }
    case WorkloadKind::kYcsbABatched: {
      icg::KvConfig kv;
      kv.wal_fsync_service = icg::Micros(120);
      kv.snapshot_every = 512;
      icg::CassandraBindingConfig binding;
      binding.strong_read_quorum = 2;
      binding.confirmations = true;
      icg::BatchConfig batch;
      batch.batch_window = icg::Millis(5);
      sharded_.emplace(icg::MakeShardedCassandraStack(
          *world_, 3, kv, binding, Region::kIreland,
          {Region::kFrankfurt, Region::kIreland, Region::kVirginia}, batch));
      icg::AddShardedCassandraClient(*world_, *sharded_, binding, Region::kFrankfurt, batch);
      icg::AddShardedCassandraClient(*world_, *sharded_, binding, Region::kVirginia, batch);
      for (const auto& endpoint : sharded_->endpoints()) {
        AddClient(endpoint->router, batch);
        for (const auto& link : endpoint->kv_clients) {
          kv_links_.push_back(link.get());
        }
      }
      for (const auto& replica : sharded_->cluster->replicas()) {
        replicas_.push_back(replica.get());
        if (std::find(sharded_->coordinator_ids().begin(), sharded_->coordinator_ids().end(),
                      replica->id()) != sharded_->coordinator_ids().end()) {
          coordinators_.push_back(replica.get());
        }
      }
      break;
    }
    case WorkloadKind::kCzkQueue: {
      zookeeper_.emplace(icg::MakeZooKeeperStack(*world_, icg::ZabConfig{}, Region::kIreland,
                                                 Region::kIreland, Region::kIreland));
      zookeeper_extra_.push_back(
          icg::AddZooKeeperClient(*world_, *zookeeper_, Region::kFrankfurt, Region::kFrankfurt));
      zookeeper_extra_.push_back(
          icg::AddZooKeeperClient(*world_, *zookeeper_, Region::kVirginia, Region::kVirginia));
      AddClient(zookeeper_->binding, {});
      zab_links_.push_back(zookeeper_->zab_client.get());
      for (const auto& endpoint : zookeeper_extra_) {
        AddClient(endpoint.binding, {});
        zab_links_.push_back(endpoint.zab_client.get());
      }
      break;
    }
  }
  const double preload_start = CpuSeconds();
  Preload();
  times.preload_s = CpuSeconds() - preload_start;
  times.build_s = preload_start - build_start;
}

Deployment::~Deployment() = default;

void Deployment::AddClient(std::shared_ptr<icg::Binding> binding, icg::BatchConfig batch) {
  if (span_log_ != nullptr) {
    tracers_.push_back(std::make_shared<TracingBinding>(std::move(binding), span_log_.get(),
                                                        batch.batch_window > 0));
    binding = tracers_.back();
  }
  clients_.push_back(std::make_unique<icg::CorrectableClient>(std::move(binding), &loop()));
  clients_.back()->SetBatchConfig(batch);
}

void Deployment::Preload() {
  if (zookeeper_.has_value()) {
    for (int q = 0; q < kQueues; ++q) {
      const std::string queue = icg::CoreWorkload::KeyForIndex(q);
      zookeeper_->cluster->PreloadQueue(queue, queue_depth_, QueuePrefix(queue));
    }
    return;
  }
  icg::KvCluster* cluster =
      cassandra_.has_value() ? cassandra_->cluster.get() : sharded_->cluster.get();
  icg::PreloadYcsbDataset(cluster, YcsbConfigFor(kind_));
}

void Deployment::AllowPreloaded(OutputChecker& checker) const {
  const icg::WorkloadConfig config = YcsbConfigFor(kind_);
  if (kind_ == WorkloadKind::kCzkQueue) {
    for (int q = 0; q < kQueues; ++q) {
      const std::string queue = icg::CoreWorkload::KeyForIndex(q);
      const std::string prefix = QueuePrefix(queue);
      for (int64_t i = 0; i < queue_depth_; ++i) {
        checker.Allow(queue, prefix + std::to_string(i));
      }
    }
    return;
  }
  // PreloadYcsbDataset installs one filler value of the record size under every key.
  const std::string filler(static_cast<size_t>(config.ValueBytes()), 'x');
  for (int64_t i = 0; i < config.record_count; ++i) {
    checker.Allow(icg::CoreWorkload::KeyForIndex(i), filler);
  }
}

Counters Deployment::Read() const {
  Counters c;
  c.events = world_->loop().events_processed();
  const icg::Network& net = world_->network();
  const int nodes = world_->topology().NumNodes();
  for (int a = 0; a < nodes; ++a) {
    for (int b = 0; b < nodes; ++b) {
      c.net_messages += net.Sent(a, b).messages;
    }
  }
  c.dropped = net.dropped_messages();
  for (const icg::KvClient* link : kv_links_) {
    c.client_messages += link->LinkMessages();
    c.client_bytes += link->LinkBytes();
  }
  for (const icg::ZabClient* link : zab_links_) {
    c.client_messages += link->LinkMessages();
    c.client_bytes += link->LinkBytes();
  }
  for (icg::KvReplica* replica : replicas_) {
    c.kv_service_jobs += replica->service_queue().submitted();
    const icg::Wal* wal = replica->wal();
    if (wal != nullptr) {
      c.wal_syncs += wal->syncs();
      const auto live = static_cast<int64_t>(wal->next_lsn() - 1 - wal->truncated_through());
      if (live > 0) {
        c.wal_bytes += static_cast<double>(wal->appended_records()) *
                       static_cast<double>(wal->device_bytes()) / static_cast<double>(live);
      }
    }
  }
  for (icg::KvReplica* coordinator : coordinators_) {
    c.coord_busy_us.push_back(coordinator->service_queue().total_busy_time());
  }
  if (zookeeper_.has_value()) {
    for (const auto& server : zookeeper_->cluster->servers()) {
      c.zab_service_jobs += server->service_queue().submitted();
    }
    c.leader_busy_us = zookeeper_->cluster->leader()->service_queue().total_busy_time();
  }
  return c;
}

int64_t Deployment::MaxQueueDepth() const {
  if (zookeeper_.has_value()) {
    return zookeeper_->cluster->leader()->service_queue().InFlight();
  }
  int64_t depth = 0;
  for (icg::KvReplica* coordinator : coordinators_) {
    depth = std::max(depth, coordinator->service_queue().InFlight());
  }
  return depth;
}

}  // namespace perfbench

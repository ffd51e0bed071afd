// The three benchmark deployments, built through the public harness API, and the
// program-side counters the benchmark reads from public getters.
//
//   ycsb-b-icg      Fig 6 deployment: 3 unsharded Cassandra clients IRL->FRK, FRK->VRG,
//                   VRG->IRL; CC2 (R={1,2}), no confirmations, no batching; YCSB-B
//                   zipfian over 10k x 100 B records.
//   ycsb-a-batched  MakeShardedCassandraStack, 3 coordinators, 3 routed clients (one per
//                   region); 5 ms batch window; confirmations on; WAL fsync 120 us and a
//                   snapshot every 512 records; YCSB-A uniform over 100k x 100 B records.
//   czk-queue       ZooKeeper ensemble IRL/FRK/VRG, leader IRL; one client per region
//                   with a session on its local server; 50:50 enqueue/dequeue over 4
//                   shared, deeply preloaded queues.
#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/trace.h"
#include "src/harness/deployment.h"
#include "src/ycsb/workload.h"

namespace perfbench {

enum class WorkloadKind { kYcsbBIcg, kYcsbABatched, kCzkQueue };

bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

// The YCSB mix a workload draws its operations from (for czk-queue: reads are
// dequeues, updates are enqueues, and the records are the queues).
icg::WorkloadConfig YcsbConfigFor(WorkloadKind kind);

// Cumulative counters of the deployment, read from public getters.
struct Counters {
  int64_t events = 0;           // EventLoop::events_processed
  int64_t net_messages = 0;     // every node-to-node message
  int64_t client_messages = 0;  // client <-> server links only
  int64_t client_bytes = 0;
  int64_t dropped = 0;
  int64_t kv_service_jobs = 0;    // ServiceQueue submissions over every kv replica
  int64_t zab_service_jobs = 0;   // ... over every zab server
  std::vector<int64_t> coord_busy_us;  // ServiceQueue busy time per kv coordinator
  int64_t leader_busy_us = 0;          // ... of the zab leader
  int64_t wal_syncs = 0;
  double wal_bytes = 0.0;  // appended records x mean on-device record size
};

class Deployment {
 public:
  struct SetupTimes {
    double build_s = 0.0;    // world, stacks and clients
    double preload_s = 0.0;  // dataset / queue preloading
  };

  // Builds the deployment for `kind` from `seed`. With `traced`, every client's binding
  // sits behind a TracingBinding feeding span_log(). `queue_depth` is the per-queue
  // preload of czk-queue.
  Deployment(WorkloadKind kind, uint64_t seed, bool traced, int64_t queue_depth,
             SetupTimes& times);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  icg::EventLoop& loop() { return world_->loop(); }
  size_t num_clients() const { return clients_.size(); }
  icg::CorrectableClient& client(size_t i) { return *clients_[i]; }
  TracingBinding* tracer(size_t i) { return tracers_.empty() ? nullptr : tracers_[i].get(); }
  SpanLog* span_log() { return span_log_.get(); }

  // Registers every preloaded (key, value) pair as legal output.
  void AllowPreloaded(OutputChecker& checker) const;

  Counters Read() const;
  // Largest InFlight() over the coordinator queues (kv) or the leader's queue (zab).
  int64_t MaxQueueDepth() const;

  static constexpr int kQueues = 4;

 private:
  void AddClient(std::shared_ptr<icg::Binding> binding, icg::BatchConfig batch);
  void Preload();
  // Preloaded queue elements are this prefix followed by their index.
  static std::string QueuePrefix(const std::string& queue) { return "p." + queue + "."; }

  WorkloadKind kind_;
  int64_t queue_depth_;
  std::unique_ptr<icg::SimWorld> world_;
  std::unique_ptr<SpanLog> span_log_;
  std::optional<icg::CassandraStack> cassandra_;
  std::vector<icg::CassandraClientEndpoint> cassandra_extra_;
  std::optional<icg::ShardedCassandraStack> sharded_;
  std::optional<icg::ZooKeeperStack> zookeeper_;
  std::vector<icg::ZooKeeperClientEndpoint> zookeeper_extra_;
  std::vector<icg::KvReplica*> replicas_;
  std::vector<icg::KvReplica*> coordinators_;
  std::vector<const icg::KvClient*> kv_links_;
  std::vector<const icg::ZabClient*> zab_links_;
  std::vector<std::shared_ptr<TracingBinding>> tracers_;
  std::vector<std::unique_ptr<icg::CorrectableClient>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_

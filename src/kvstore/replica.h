// A quorum-store replica (Cassandra-like), including the coordinator role.
//
// Any replica can coordinate client operations, exactly as in Cassandra. There is one
// read path and one write path; a single-key Get/Put is the one-entry case of the
// batched MultiGet/MultiPut, and the request's WireShape only picks the byte formulas
// and how the result is packed (one OpResult, or a joined value with per-key detail).
//
//   Read:  the coordinator reads its keys locally and, in parallel, asks min(peers, R)
//          peer replicas; it answers the client once R responses (its own included, if
//          it came in time) are merged per key under last-writer-wins. Stale copies —
//          its own and the peers' — are read-repaired per key.
//   Write: the entries apply locally in order, are appended to the WAL with one fsync
//          per request, and are acknowledged once (W = 1, the paper's configuration);
//          then every entry replicates to the peers asynchronously.
//
// Correctable Cassandra (CC) behaviour (§5.2 of the paper) is triggered per request:
// when a read requests ICG, the coordinator *flushes a preliminary response* to the
// client right after its local read — paying `flush_service` extra coordinator time,
// which is the source of CC's throughput drop — and later sends the final response. With
// `confirmations` enabled (the *CC2 variant), a final matching the preliminary digest is
// replaced by a small confirmation message.
#ifndef ICG_KVSTORE_REPLICA_H_
#define ICG_KVSTORE_REPLICA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/pooled.h"
#include "src/common/small_vec.h"
#include "src/common/status.h"
#include "src/correctables/binding.h"
#include "src/correctables/operation.h"
#include "src/kvstore/snapshot.h"
#include "src/kvstore/versioned_value.h"
#include "src/kvstore/wal.h"
#include "src/sim/network.h"
#include "src/sim/service_queue.h"

namespace icg {

struct KvConfig {
  int replication_factor = 3;

  // Coordinator-side service times (single-server queue per replica).
  SimDuration read_service = Micros(900);       // local read on the coordinator
  SimDuration peer_read_service = Micros(400);  // serving an internal quorum read
  SimDuration write_service = Micros(500);      // coordinator write apply + fan-out
  SimDuration replicate_service = Micros(300);  // applying a replicated write
  SimDuration flush_service = Micros(60);       // CC preliminary flushing (extra)
  // Incremental cost per additional key in a batched (multiget) read.
  SimDuration multiread_per_key_service = Micros(60);
  // Incremental cost per additional write in a batched (multiput) submission.
  SimDuration multiwrite_per_key_service = Micros(80);

  // Coordinator waits this long for quorum responses before failing the read.
  SimDuration read_timeout = Millis(2000);

  bool read_repair = true;

  // --- Durability (per-replica WAL + snapshots) ---------------------------------------
  // The defaults keep the pre-durability event timeline bit-for-bit: appends are pure
  // in-memory bookkeeping (no events, no service time) and snapshots never trigger.
  // Crash/recovery tests and the failover bench opt into nonzero knobs.
  SimDuration wal_fsync_service = 0;  // fsync charged between WAL append and write ack
  bool wal_torn_tail = false;         // crash may leave a torn partial record (faults)
  int64_t snapshot_every = 0;         // snapshot every N appended records (0 = never)
  SimDuration snapshot_base_service = Micros(400);     // fixed cost of taking a snapshot
  SimDuration snapshot_per_entry_service = Micros(2);  // plus per serialized entry
  SimDuration ping_service = Micros(20);               // heartbeat probe handling
  SimDuration bootstrap_per_key_service = Micros(5);   // anti-entropy dump, per entry
  // Writes acked while this replica was down may still be in flight to the bootstrap
  // peer when it serves the first dump (their fan-out raced the dump). A second round
  // after this delay — past the worst one-way replication latency — closes the race.
  SimDuration bootstrap_settle_delay = Millis(300);
};

// How a client read wants its responses delivered.
struct ReadOptions {
  int read_quorum = 1;
  bool want_preliminary = false;  // ICG: flush a weak view before coordinating
  bool want_final = true;         // false = weak-only read (R=1 local)
  bool confirmations = false;     // replace matching finals by confirmation messages
};

// Client-side completion for one view of a read/write. `kind` distinguishes full values
// from confirmations; the bool marks the final view.
// 96 inline bytes: fits the pipeline's per-level emission adapters inline.
using KvResponseFn =
    InlineFunction<void(StatusOr<OpResult>, bool is_final, ResponseKind kind), 96>;

class KvReplica {
 public:
  KvReplica(Network* network, NodeId id, const KvConfig* config, const std::string& name);

  // Wires up the peer set (all other replicas, excluding self). Must be called once
  // before use.
  void SetPeers(std::vector<KvReplica*> peers);

  // Event counts since construction (crashes do not reset them).
  struct Counters {
    int64_t reads_coordinated = 0;       // Get-shaped reads
    int64_t multireads_coordinated = 0;  // MultiGet-shaped reads
    int64_t icg_reads = 0;               // reads of either shape that asked for a preliminary
    int64_t writes_coordinated = 0;        // Put-shaped writes
    int64_t multi_writes_coordinated = 0;  // MultiPut-shaped writes
    int64_t preliminaries_sent = 0;
    int64_t confirmations_sent = 0;
    int64_t matching_finals = 0;   // ICG finals sent in full yet equal to their preliminary
    int64_t divergent_finals = 0;  // ICG finals that corrected their preliminary
    int64_t read_timeouts = 0;
    int64_t read_repairs = 0;
    int64_t replications_applied = 0;
    int64_t snapshots_taken = 0;           // base rewrites + deltas
    int64_t delta_snapshots = 0;           // snapshots that appended a delta segment
    int64_t snapshot_entries_written = 0;  // entries serialized, bases + deltas
    int64_t crashes = 0;
    int64_t recoveries = 0;
    int64_t recovery_pushes = 0;
    int64_t bootstrap_requests = 0;
    int64_t bootstrap_retries = 0;
    int64_t bootstraps_served = 0;
    int64_t bootstraps_completed = 0;
  };

  NodeId id() const { return id_; }
  ServiceQueue& service_queue() { return service_; }
  const Counters& counters() const { return counters_; }

  // --- Crash & recovery ----------------------------------------------------------------
  // kill -9: wipes all volatile state (storage, pending reads, queued service work) and
  // truncates the WAL's unsynced tail, exactly as a process death would. The WAL and
  // snapshot devices survive. Callers normally pair this with Network::Crash(id) so new
  // messages stop reaching the node; messages already in flight still deliver and are
  // dropped by the entry-point guards here.
  void Crash();
  // Rebuilds state from the snapshot (base, then each delta in order) plus WAL replay
  // strictly after its last segment (LWW apply, so replay is idempotent — zero
  // duplication), restores the write clock, and kicks off an asynchronous anti-entropy
  // bootstrap from the nearest live peer to pick up writes coordinated elsewhere while
  // this replica was down. Pair with Network::Restart(id) *before* calling so the
  // bootstrap request can leave the node.
  void Recover();
  bool crashed() const { return crashed_; }
  uint64_t incarnation() const { return incarnation_; }

  struct RecoveryStats {
    uint64_t snapshot_entries = 0;       // entries loaded from base + deltas
    uint64_t wal_records_replayed = 0;   // records applied past the snapshot
    bool torn_tail = false;              // replay ended at a torn record
    uint64_t bootstrap_keys_merged = 0;  // entries LWW-merged from the bootstrap peer
    bool bootstrap_complete = false;
  };
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // Durability observability: every replica keeps a WAL and a snapshot device (never
  // null).
  Wal* wal() { return &wal_; }
  SnapshotManager* snapshots() { return &snapshot_; }
  // Store entries changed since the last snapshot cut, duplicates included (always 0
  // when snapshots are off).
  size_t changed_since_cut() const { return changed_.size(); }

  // --- Coordinator entry points (invoked at this node; client_id is the requester) ----
  // Reads every key of `request` under the same quorum/ICG options. The result is packed
  // in the request's wire shape. An empty request fails with kInvalidArgument.
  void CoordinateRead(NodeId client_id, ReadRequest request, const ReadOptions& options,
                      KvResponseFn respond);
  // Applies the writes in order — same-key writes keep their program order — each under
  // its own strictly increasing LWW version, then acknowledges once and replicates every
  // entry asynchronously. A write whose `version.timestamp` is a client stamp gets the
  // version {stamp, client_id}, so a single writer's stamps order its writes regardless
  // of which coordinator applies them (live rebalancing moves keys between coordinators
  // mid-stream; apply-time stamping would let a backlogged old coordinator invert the
  // order). An empty request fails with kInvalidArgument.
  void CoordinateWrite(NodeId client_id, WriteRequest request, KvResponseFn respond);

  // --- Peer-internal handlers (invoked at this node by other replicas) ----------------
  // One slot per key of a request, in key order.
  using Values = SmallVec<std::optional<VersionedValue>, 1>;
  void HandlePeerRead(NodeId requester, WireShape shape, SmallVec<std::string, 1> keys,
                      uint64_t request_id, std::function<void(uint64_t, Values)> reply);
  void HandleReplicate(const std::string& key, VersionedValue incoming);
  // Failure-detector probe: answers with `probe_id` after a small service charge. A
  // crashed replica never answers — missed probes are the detector's death signal.
  void HandlePing(NodeId requester, uint64_t probe_id, std::function<void(uint64_t)> reply);
  // Anti-entropy dump for a recovering peer: serves this replica's whole LWW store
  // (service time proportional to its size, bytes accounted on the wire).
  void HandleBootstrap(NodeId requester,
                       std::function<void(std::vector<std::pair<std::string, VersionedValue>>)>
                           deliver);

  // --- Direct local access (tests, dataset preloading) --------------------------------
  std::optional<VersionedValue> LocalGet(const std::string& key) const;
  void LocalPut(const std::string& key, std::string value, Version version);
  size_t LocalSize() const { return storage_.size(); }

 private:
  struct PeerAsked {
    NodeId id = kInvalidNode;
    Values values;  // empty until the peer answers
  };
  struct PendingRead {
    NodeId client_id = kInvalidNode;
    ReadRequest request;
    ReadOptions options;
    KvResponseFn respond;
    Values local;  // the coordinator's own read once served; nullopt slots before
    // One entry per peer asked, min(peers, R): inline for CC2 and CC3 on three replicas.
    SmallVec<PeerAsked, 2> peers;
    int responses = 0;  // local + peer responses received
    bool preliminary_sent = false;
    Digest preliminary_digest = 0;
    bool done = false;
    TimerId timeout_timer = 0;
  };

  void MaybeFinishRead(uint64_t request_id);
  // Merges every response per key under LWW into `read.local`, repairing stale copies
  // on the way, and sends the final view (or its confirmation).
  void FinishRead(PendingRead& read);
  void RepairKey(const PendingRead& read, size_t index, const VersionedValue& freshest);
  // The final response takes `read.respond` (the read is erased right after); the
  // preliminary sends a copy.
  void SendReadResponse(PendingRead& read, Values values, bool is_final, ResponseKind kind);
  static Digest CombinedDigest(const Values& values);

  using Store = SnapshotManager::Store;

  // LWW apply to local storage in one map lookup; returns true if the store changed.
  // Appends the applied record to the WAL when `log` says so (lazily — durability waits
  // for the next Sync).
  bool ApplyLww(const std::string& key, const std::string& value, Version version, bool log);
  // Notes a changed entry for the next delta snapshot.
  void MarkChanged(Store::const_iterator entry);
  // Snapshot cadence: once `snapshot_every` records accumulated past the last snapshot,
  // cuts the changed entries and schedules a background snapshot on the service queue.
  // Its cost scales with the distinct keys changed since the previous cut, or with the
  // store size when the base is due for a rewrite.
  void MaybeScheduleSnapshot();
  // One attempt of the post-recovery anti-entropy bootstrap; retries on the next peer
  // if the current one never answers (it may be dead too).
  void StartBootstrap(size_t attempt);

  Network* network_;
  EventLoop* loop_;
  NodeId id_;
  const KvConfig* config_;
  ServiceQueue service_;
  Counters counters_;

  // In-flight requests by id: one node insert and erase per read, recycled by the pool.
  template <typename V>
  using PendingMap = std::map<uint64_t, V, std::less<uint64_t>,
                              PoolAllocator<std::pair<const uint64_t, V>>>;

  std::vector<KvReplica*> peers_;  // other replicas, nearest first
  Store storage_;
  PendingMap<PendingRead> pending_reads_;
  uint64_t next_request_id_ = 1;
  uint64_t write_seq_ = 0;  // disambiguates same-microsecond writes from this coordinator

  // --- Durability & crash state --------------------------------------------------------
  Wal wal_;  // survives Crash(), like the disk it models
  SnapshotManager snapshot_;
  bool crashed_ = false;
  uint64_t incarnation_ = 0;  // bumped per crash; stale async callbacks check and no-op
  bool snapshot_in_flight_ = false;
  int64_t records_at_last_snapshot_ = 0;
  // Entries changed since the last cut, and the deduplicated, key-ordered cut the queued
  // delta job serializes. Both keep their capacity, so tracking does not allocate in
  // steady state. Crash() clears them along with the entries they point into.
  std::vector<Store::const_iterator> changed_;
  std::vector<Store::const_iterator> cut_;
  // Highest WAL LSN whose record is cluster-visible: its replication fan-out was sent,
  // or the value arrived FROM the cluster (replication, repair, bootstrap, preload).
  // Snapshots only cover up to here, so the replayed tail after a crash is exactly the
  // set of records that might exist on this disk alone — the recovery push re-replicates
  // just that tail instead of the whole store.
  uint64_t replicated_lsn_ = 0;
  bool bootstrap_pending_ = false;
  int bootstrap_round_ = 0;  // 0 = first dump, 1 = post-settle-delay verification round
  TimerId bootstrap_timer_ = 0;
  RecoveryStats last_recovery_;
};

}  // namespace icg

#endif  // ICG_KVSTORE_REPLICA_H_

#include "src/kvstore/replica.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <utility>

#include "src/common/logging.h"

namespace icg {

namespace {

// Extra service time for every key of a request past the first.
SimDuration PerExtraKey(SimDuration per_key, size_t keys) {
  return per_key * static_cast<SimDuration>(keys - 1);
}

// Packs per-key values in the request's wire shape, moving the payloads out.
OpResult PackValues(WireShape shape, KvReplica::Values& values) {
  return PackRead(shape, values.size(), [&values](size_t i) -> std::optional<OpResult> {
    std::optional<VersionedValue>& value = values[i];
    if (!value.has_value()) {
      return std::nullopt;
    }
    OpResult result;
    result.found = true;
    result.value = std::move(value->value);
    result.version = value->version;
    return result;
  });
}

}  // namespace

KvReplica::KvReplica(Network* network, NodeId id, const KvConfig* config, const std::string& name)
    : network_(network),
      loop_(network->loop()),
      id_(id),
      config_(config),
      service_(network->loop(), name),
      wal_(name + ".wal"),
      snapshot_(name + ".snap") {
  assert(config_ != nullptr);
  wal_.SetFaults(WalFaults{config_->wal_fsync_service, config_->wal_torn_tail});
}

void KvReplica::SetPeers(std::vector<KvReplica*> peers) {
  peers_ = std::move(peers);
  // Keep peers ordered nearest-first from this node, so quorum requests go to the
  // closest replicas — the behaviour that produces the paper's CC2 20 ms gap (coordinator
  // + nearest replica) versus CC3's 140 ms gap (farthest replica).
  std::sort(peers_.begin(), peers_.end(), [this](const KvReplica* a, const KvReplica* b) {
    return network_->topology()->RttBetween(id_, a->id()) <
           network_->topology()->RttBetween(id_, b->id());
  });
}

void KvReplica::CoordinateRead(NodeId client_id, ReadRequest request,
                               const ReadOptions& options, KvResponseFn respond) {
  assert(options.read_quorum >= 1);
  if (crashed_) {
    return;  // in-flight request outlived the process; the client's timeout handles it
  }
  if (request.keys.empty()) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("empty read request"), /*is_final=*/true,
              ResponseKind::kValue);
    });
    return;
  }
  const uint64_t request_id = next_request_id_++;
  PendingRead& read = pending_reads_[request_id];
  read.client_id = client_id;
  read.request = std::move(request);
  read.options = options;
  read.respond = std::move(respond);
  const size_t key_count = read.request.keys.size();
  for (size_t i = 0; i < key_count; ++i) {
    read.local.emplace_back();
  }

  (read.request.shape == WireShape::kSingle ? counters_.reads_coordinated
                                            : counters_.multireads_coordinated)++;
  if (options.want_preliminary) {
    counters_.icg_reads++;
  }

  // Fan out to peer replicas in parallel with the local read (only when a quorum > 1 is
  // required). Responses beyond the quorum feed read repair.
  if (options.read_quorum > 1) {
    const size_t peer_count = std::min(peers_.size(), static_cast<size_t>(options.read_quorum));
    const int64_t req_bytes = read.request.WireBytes();
    for (size_t slot = 0; slot < peer_count; ++slot) {
      KvReplica* peer = peers_[slot];
      read.peers.push_back(PeerAsked{peer->id(), {}});
      network_->Send(id_, peer->id(), req_bytes,
                     [this, peer, shape = read.request.shape, keys = read.request.keys,
                      request_id, slot]() mutable {
        peer->HandlePeerRead(id_, shape, std::move(keys), request_id,
                             [this, slot](uint64_t rid, Values values) {
                               auto it = pending_reads_.find(rid);
                               if (it == pending_reads_.end()) {
                                 return;  // request already finished (late reply)
                               }
                               it->second.peers[slot].values = std::move(values);
                               it->second.responses++;
                               MaybeFinishRead(rid);
                             });
      });
    }
  }

  // Local read on the coordinator's service queue.
  const SimDuration service =
      config_->read_service + PerExtraKey(config_->multiread_per_key_service, key_count);
  service_.Submit(service, [this, request_id]() {
    auto it = pending_reads_.find(request_id);
    if (it == pending_reads_.end()) {
      return;
    }
    PendingRead& r = it->second;
    for (size_t i = 0; i < r.local.size(); ++i) {
      r.local[i] = LocalGet(r.request.keys[i]);
    }
    r.responses++;
    if (r.options.want_preliminary) {
      // Preliminary flushing (§6.2.1): serializing and sending the early response costs
      // extra coordinator time, the cause of CC's throughput drop versus baseline.
      service_.Submit(config_->flush_service, [this, request_id]() {
        auto it2 = pending_reads_.find(request_id);
        if (it2 == pending_reads_.end()) {
          return;
        }
        PendingRead& r2 = it2->second;
        if (r2.done || r2.preliminary_sent) {
          return;
        }
        r2.preliminary_sent = true;
        r2.preliminary_digest = CombinedDigest(r2.local);
        counters_.preliminaries_sent++;
        // A copy: the local values still take part in the quorum merge.
        SendReadResponse(r2, r2.local, /*is_final=*/false, ResponseKind::kValue);
        MaybeFinishRead(request_id);
      });
    }
    MaybeFinishRead(request_id);
  });

  // Quorum timeout: fail the request if peers never answer (crash/partition).
  read.timeout_timer = loop_->Schedule(config_->read_timeout, [this, request_id]() {
    auto it = pending_reads_.find(request_id);
    if (it == pending_reads_.end()) {
      return;
    }
    PendingRead& r = it->second;
    if (r.done) {
      return;
    }
    r.done = true;
    counters_.read_timeouts++;
    network_->Send(id_, r.client_id, kResponseHeaderBytes, [respond = std::move(r.respond)]() {
      respond(Status::Timeout("read quorum not reached"), /*is_final=*/true,
              ResponseKind::kValue);
    });
    pending_reads_.erase(it);
  });
}

void KvReplica::MaybeFinishRead(uint64_t request_id) {
  auto it = pending_reads_.find(request_id);
  if (it == pending_reads_.end()) {
    return;
  }
  PendingRead& read = it->second;
  if (read.done) {
    return;
  }
  if (read.responses < read.options.read_quorum) {
    return;
  }
  // An ICG read must deliver its preliminary before the final view.
  if (read.options.want_preliminary && !read.preliminary_sent) {
    return;
  }
  FinishRead(read);
  loop_->Cancel(read.timeout_timer);
  pending_reads_.erase(request_id);
}

void KvReplica::FinishRead(PendingRead& read) {
  read.done = true;
  for (size_t i = 0; i < read.local.size(); ++i) {
    std::optional<VersionedValue>* freshest = &read.local[i];
    for (PeerAsked& peer : read.peers) {
      if (i >= peer.values.size()) {
        continue;  // not answered
      }
      std::optional<VersionedValue>& candidate = peer.values[i];
      if (candidate.has_value() &&
          (!freshest->has_value() || (*freshest)->OlderThan(candidate->version))) {
        freshest = &candidate;
      }
    }
    if (!freshest->has_value()) {
      continue;
    }
    if (config_->read_repair) {
      RepairKey(read, i, **freshest);
    }
    if (freshest != &read.local[i]) {
      read.local[i] = std::move(*freshest);  // `local` becomes the merged view
    }
  }

  ResponseKind kind = ResponseKind::kValue;
  if (read.options.want_preliminary) {
    const bool matches = CombinedDigest(read.local) == read.preliminary_digest;
    if (matches && read.options.confirmations) {
      kind = ResponseKind::kConfirmation;
      counters_.confirmations_sent++;
    } else {
      (matches ? counters_.matching_finals : counters_.divergent_finals)++;
    }
  }
  SendReadResponse(read, kind == ResponseKind::kValue ? std::move(read.local) : Values{},
                   /*is_final=*/true, kind);
}

void KvReplica::SendReadResponse(PendingRead& read, Values values, bool is_final,
                                 ResponseKind kind) {
  // A confirmation carries no payload: the client library substitutes the preliminary.
  int64_t bytes = kConfirmationBytes;
  OpResult result;
  if (kind == ResponseKind::kValue) {
    result = PackValues(read.request.shape, values);
    bytes = result.WireBytes();
    if (read.request.shape == WireShape::kBatch) {
      bytes += 8 * static_cast<int64_t>(values.size());  // the per-key versions
    }
  }
  network_->Send(id_, read.client_id, bytes,
                 [respond = is_final ? std::move(read.respond) : read.respond,
                  result = std::move(result), is_final, kind]() mutable {
                   respond(std::move(result), is_final, kind);
                 });
}

void KvReplica::RepairKey(const PendingRead& read, size_t index,
                          const VersionedValue& freshest) {
  // Repair the coordinator's own copy synchronously (cheap local apply) and stale peers
  // asynchronously over the network.
  const std::string& key = read.request.keys[index];
  const std::optional<VersionedValue>& local = read.local[index];
  if (!local.has_value() || local->OlderThan(freshest.version)) {
    if (ApplyLww(key, freshest.value, freshest.version, /*log=*/true)) {
      counters_.read_repairs++;
    }
  }
  for (const PeerAsked& asked : read.peers) {
    const bool stale = index < asked.values.size() && asked.values[index].has_value() &&
                       asked.values[index]->OlderThan(freshest.version);
    if (!stale) {
      continue;
    }
    const auto peer = std::find_if(peers_.begin(), peers_.end(),
                                   [&asked](const KvReplica* p) { return p->id() == asked.id; });
    if (peer == peers_.end()) {
      continue;
    }
    const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                          static_cast<int64_t>(freshest.value.size());
    counters_.read_repairs++;
    network_->Send(id_, asked.id, bytes, [peer = *peer, key = key, value = freshest]() mutable {
      peer->HandleReplicate(key, std::move(value));
    });
  }
}

Digest KvReplica::CombinedDigest(const Values& values) {
  Digest digest = 0xcbf29ce484222325ULL;
  for (const auto& value : values) {
    const Digest d = value.has_value() ? value->ContentDigest() : ValueDigest("", 0);
    digest ^= d + 0x9e3779b97f4a7c15ULL + (digest << 6) + (digest >> 2);
  }
  return digest;
}

void KvReplica::HandlePeerRead(NodeId requester, WireShape shape, SmallVec<std::string, 1> keys,
                               uint64_t request_id,
                               std::function<void(uint64_t, Values)> reply) {
  if (crashed_) {
    return;
  }
  const SimDuration service =
      config_->peer_read_service + PerExtraKey(config_->multiread_per_key_service, keys.size());
  service_.Submit(service, [this, requester, shape, keys = std::move(keys), request_id,
                            reply = std::move(reply)]() mutable {
    Values values;
    int64_t bytes = kResponseHeaderBytes;
    for (const std::string& key : keys) {
      const std::optional<VersionedValue>& value = values.emplace_back(LocalGet(key));
      if (value.has_value()) {
        // A batch reply carries every found key's version as well.
        bytes += static_cast<int64_t>(value->value.size()) + (shape == WireShape::kBatch ? 8 : 0);
      }
    }
    network_->Send(id_, requester, bytes,
                   [reply = std::move(reply), request_id, values = std::move(values)]() mutable {
                     reply(request_id, std::move(values));
                   });
  });
}

void KvReplica::CoordinateWrite(NodeId client_id, WriteRequest request, KvResponseFn respond) {
  if (crashed_) {
    return;
  }
  if (request.writes.empty()) {
    network_->Send(id_, client_id, kResponseHeaderBytes, [respond = std::move(respond)]() {
      respond(Status::InvalidArgument("empty or mismatched write request"),
              /*is_final=*/true, ResponseKind::kValue);
    });
    return;
  }
  (request.shape == WireShape::kSingle ? counters_.writes_coordinated
                                       : counters_.multi_writes_coordinated)++;
  const SimDuration service =
      config_->write_service +
      PerExtraKey(config_->multiwrite_per_key_service, request.writes.size());
  // `shape` beside `client_id` and the writes unwrapped keep both closures within a
  // service job's inline capacity.
  service_.Submit(service, [this, client_id, shape = request.shape,
                            writes = std::move(request.writes),
                            respond = std::move(respond)]() mutable {
    uint64_t lsn = 0;
    for (KeyWrite& write : writes) {
      // Coordinator-assigned LWW timestamp; write_seq_ keeps it strictly monotonic even
      // for same-microsecond writes, and the writer id breaks cross-coordinator ties. A
      // client stamp overrides both fields: the stamp orders the writer's stream and the
      // client id breaks ties, making the version independent of which coordinator
      // applied it.
      const SimTime stamp = write.version.timestamp;
      write_seq_ = std::max({static_cast<uint64_t>(loop_->Now()), write_seq_ + 1,
                             static_cast<uint64_t>(stamp)});
      write.version = stamp != 0 ? Version{stamp, client_id}
                                 : Version{static_cast<SimTime>(write_seq_), id_};
      ApplyLww(write.key, write.value, write.version, /*log=*/false);
      lsn = wal_.Append(write.key, write.value, write.version);
    }

    // WAL-before-ack, with one group fsync per request: a coordinated request is logged
    // and fsynced before the client hears about it — an acked write survives any kill -9
    // from here on, and either every entry of an acked batch is durable or the crash
    // predates the ack (no torn batch slice). The fsync latency (when configured) is
    // charged as extra service time between append and ack; a crash inside that window
    // leaves a durable but *unacked* record — legal either way, since the client saw no
    // ack, and Recover()'s anti-entropy push re-replicates it so the cluster still
    // converges on one outcome. LWW apply may have rejected an older version above, but
    // the record is logged unconditionally: the ack promises durability of the
    // submission, and replay re-applies under the same LWW rule (idempotent, zero
    // duplication).
    const SimDuration fsync = wal_.Sync();
    MaybeScheduleSnapshot();

    auto finish = [this, client_id, shape, writes = std::move(writes), lsn,
                   respond = std::move(respond)]() mutable {
      // W = 1: acknowledge after the local apply (+ fsync when configured).
      network_->Send(id_, client_id, kResponseHeaderBytes,
                     [respond = std::move(respond), ack = PackWriteAck(shape, writes)]() mutable {
                       respond(std::move(ack), /*is_final=*/true, ResponseKind::kValue);
                     });

      // Asynchronous replication to the other replicas. The fan-out makes the request's
      // records cluster-visible: snapshots may cover them from here on.
      replicated_lsn_ = std::max(replicated_lsn_, lsn);
      for (const KeyWrite& write : writes) {
        for (KvReplica* peer : peers_) {
          const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(write.key.size()) +
                                static_cast<int64_t>(write.value.size());
          network_->Send(id_, peer->id(), bytes,
                         [peer, key = write.key,
                          vv = VersionedValue{write.value, write.version}]() mutable {
                           peer->HandleReplicate(key, std::move(vv));
                         });
        }
      }
    };
    static_assert(EventLoop::Task::StoresInline<ServiceQueue::Job<decltype(finish)>>(),
                  "a write's ack-and-fan-out job must not allocate");
    if (fsync > 0) {
      service_.Submit(fsync, std::move(finish));
    } else {
      finish();
    }
  });
}

void KvReplica::HandleReplicate(const std::string& key, VersionedValue incoming) {
  if (crashed_) {
    return;
  }
  service_.Submit(config_->replicate_service,
                  [this, key = std::string(key), incoming = std::move(incoming)]() {
    if (ApplyLww(key, incoming.value, incoming.version, /*log=*/true)) {
      counters_.replications_applied++;
    }
  });
}

void KvReplica::HandlePing(NodeId requester, uint64_t probe_id,
                           std::function<void(uint64_t)> reply) {
  if (crashed_) {
    return;  // a dead process answers nothing — missed probes are the death signal
  }
  service_.Submit(config_->ping_service,
                  [this, requester, probe_id, reply = std::move(reply)]() {
                    network_->Send(id_, requester, kResponseHeaderBytes,
                                   [reply, probe_id]() { reply(probe_id); });
                  });
}

void KvReplica::HandleBootstrap(
    NodeId requester,
    std::function<void(std::vector<std::pair<std::string, VersionedValue>>)> deliver) {
  if (crashed_) {
    return;
  }
  const SimDuration service =
      config_->peer_read_service +
      config_->bootstrap_per_key_service * static_cast<SimDuration>(storage_.size());
  service_.Submit(service, [this, requester, deliver = std::move(deliver)]() {
    std::vector<std::pair<std::string, VersionedValue>> dump(storage_.begin(),
                                                             storage_.end());
    int64_t bytes = kResponseHeaderBytes;
    for (const auto& [key, vv] : dump) {
      bytes += static_cast<int64_t>(key.size()) + static_cast<int64_t>(vv.value.size()) + 16;
    }
    counters_.bootstraps_served++;
    network_->Send(id_, requester, bytes,
                   [deliver, dump = std::move(dump)]() { deliver(dump); });
  });
}

bool KvReplica::ApplyLww(const std::string& key, const std::string& value, Version version,
                         bool log) {
  const auto [entry, inserted] = storage_.try_emplace(key, value, version);
  if (!inserted) {
    if (!entry->second.OlderThan(version)) {
      return false;
    }
    entry->second.value = value;
    entry->second.version = version;
  }
  MarkChanged(entry);
  if (log) {
    // Lazy append: replicated/repaired state is logged but not fsynced — the unsynced
    // tail is recoverable from the peers that sent it, and it is what a torn-tail crash
    // tears. Only coordinated (acked) writes pay for a sync.
    const uint64_t lsn = wal_.Append(key, value, version);
    // The value came from a cluster-visible source, so a snapshot may cover it at once.
    replicated_lsn_ = std::max(replicated_lsn_, lsn);
    MaybeScheduleSnapshot();
  }
  return true;
}

void KvReplica::MarkChanged(Store::const_iterator entry) {
  // Until a base exists the next snapshot rewrites the whole store, so there is nothing
  // to track; with snapshots off nothing ever is.
  if (config_->snapshot_every > 0 && snapshot_.HasSnapshot()) {
    changed_.push_back(entry);
  }
}

void KvReplica::MaybeScheduleSnapshot() {
  if (config_->snapshot_every <= 0 || snapshot_in_flight_) {
    return;
  }
  if (wal_.appended_records() - records_at_last_snapshot_ < config_->snapshot_every) {
    return;
  }
  snapshot_in_flight_ = true;
  // The cut: entries changed up to here go into this snapshot, later ones into the next.
  const uint64_t cut_lsn = wal_.next_lsn() - 1;
  cut_.swap(changed_);
  changed_.clear();
  std::sort(cut_.begin(), cut_.end(),
            [](Store::const_iterator a, Store::const_iterator b) { return a->first < b->first; });
  cut_.erase(std::unique(cut_.begin(), cut_.end()), cut_.end());
  const bool base = snapshot_.NeedsBase(cut_.size());  // a rewrite covers every entry
  const size_t entries = base ? storage_.size() : cut_.size();
  const SimDuration service =
      config_->snapshot_base_service +
      config_->snapshot_per_entry_service * static_cast<SimDuration>(entries);
  // Background snapshot on the service queue: it competes with request work for the
  // replica's CPU, the cost of bounding replay time. Crash() cancels it via the queue's
  // generation, so no incarnation check is needed here.
  service_.Submit(service, [this, base, cut_lsn]() {
    snapshot_in_flight_ = false;
    // Cover only cluster-visible records up to the cut: a coordinated write between its
    // append and its replication fan-out must stay in the replayed tail, or a crash after
    // the snapshot would resurrect it on this replica alone with no record to re-push;
    // a record past the cut may belong to a key the delta does not hold.
    const uint64_t covered = std::min(replicated_lsn_, cut_lsn);
    if (base) {
      snapshot_.Take(storage_, covered);
      counters_.snapshot_entries_written += static_cast<int64_t>(storage_.size());
    } else {
      snapshot_.TakeDelta(cut_, covered);
      counters_.delta_snapshots++;
      counters_.snapshot_entries_written += static_cast<int64_t>(cut_.size());
    }
    cut_.clear();
    records_at_last_snapshot_ = wal_.appended_records();
    wal_.TruncateThrough(covered);
    counters_.snapshots_taken++;
  });
}

void KvReplica::Crash() {
  assert(!crashed_);
  crashed_ = true;
  incarnation_ += 1;
  // Cancel armed timers before dropping the pending maps (tombstone hygiene).
  for (auto& [request_id, read] : pending_reads_) {
    loop_->Cancel(read.timeout_timer);
  }
  if (bootstrap_timer_ != 0) {
    loop_->Cancel(bootstrap_timer_);
    bootstrap_timer_ = 0;
  }
  pending_reads_.clear();
  changed_.clear();  // before storage_: the entries die with the process
  cut_.clear();
  storage_.clear();
  write_seq_ = 0;
  snapshot_in_flight_ = false;
  bootstrap_pending_ = false;
  service_.CancelPending();  // queued work dies with the process
  wal_.Crash();  // the device survives; the unsynced tail does not
  counters_.crashes++;
}

void KvReplica::Recover() {
  assert(crashed_);
  crashed_ = false;
  last_recovery_ = RecoveryStats{};
  uint64_t snapshot_lsn = 0;
  std::set<std::string> replayed_keys;
  if (snapshot_.Load(&storage_, &snapshot_lsn)) {
    last_recovery_.snapshot_entries = storage_.size();
  }
  const Wal::ReplayResult replay =
      wal_.Replay(snapshot_lsn, [this, &replayed_keys](const Wal::Record& record) {
        ApplyLww(record.key, record.value, record.version, /*log=*/false);
        replayed_keys.insert(record.key);
      });
  last_recovery_.wal_records_replayed = replay.records;
  last_recovery_.torn_tail = replay.torn_tail;
  records_at_last_snapshot_ = wal_.appended_records();
  // Restore the write clock past every stamp this replica may have issued or seen, so
  // post-recovery coordinator stamps never regress below pre-crash acks.
  for (const auto& [key, vv] : storage_) {
    write_seq_ = std::max(write_seq_, static_cast<uint64_t>(vv.version.timestamp));
  }
  counters_.recoveries++;
  // Anti-entropy push: a record can be durable (fsynced) yet unreplicated — the crash
  // landed between the fsync and the replication fan-out. Snapshots never cover such
  // records (they only reach replicated_lsn_), so the candidates are exactly the
  // replayed tail. Push those keys' post-replay values to every peer; LWW-merge makes
  // entries peers already hold no-ops, while values only this replica's disk knew
  // finally propagate. Charged like serving a bootstrap dump of the same size.
  if (!peers_.empty() && !replayed_keys.empty()) {
    const uint64_t inc = incarnation_;
    const uint64_t replayed_through = wal_.next_lsn() - 1;
    const SimDuration scan =
        config_->bootstrap_per_key_service * static_cast<SimDuration>(replayed_keys.size());
    service_.Submit(scan, [this, inc, replayed_through,
                           keys = std::move(replayed_keys)]() {
      if (inc != incarnation_ || crashed_) {
        return;
      }
      counters_.recovery_pushes++;
      for (KvReplica* peer : peers_) {
        for (const std::string& key : keys) {
          const auto it = storage_.find(key);
          if (it == storage_.end()) continue;
          const VersionedValue& vv = it->second;
          const int64_t bytes = kRequestHeaderBytes + static_cast<int64_t>(key.size()) +
                                static_cast<int64_t>(vv.value.size());
          network_->Send(id_, peer->id(), bytes, [peer, key = key, vv = vv]() {
            peer->HandleReplicate(key, vv);
          });
        }
      }
      // Everything replayed is now fanned out: snapshots may cover the whole tail.
      replicated_lsn_ = std::max(replicated_lsn_, replayed_through);
    });
  }
  // Anti-entropy bootstrap: writes coordinated elsewhere while this replica was down
  // never reached it (their replication messages were dropped at send).
  if (!peers_.empty()) {
    bootstrap_pending_ = true;
    bootstrap_round_ = 0;
    const uint64_t inc = incarnation_;
    loop_->Schedule(Micros(1), [this, inc]() {
      if (inc == incarnation_ && bootstrap_pending_) {
        StartBootstrap(0);
      }
    });
  } else {
    last_recovery_.bootstrap_complete = true;
  }
}

void KvReplica::StartBootstrap(size_t attempt) {
  if (crashed_ || peers_.empty()) {
    return;
  }
  KvReplica* peer = peers_[attempt % peers_.size()];
  const uint64_t inc = incarnation_;
  counters_.bootstrap_requests++;
  network_->Send(id_, peer->id(), kRequestHeaderBytes, [this, peer, inc]() {
    peer->HandleBootstrap(
        id_, [this, inc](std::vector<std::pair<std::string, VersionedValue>> dump) {
          if (inc != incarnation_ || crashed_ || !bootstrap_pending_) {
            return;  // crashed again (or already bootstrapped) since asking
          }
          bootstrap_pending_ = false;
          if (bootstrap_timer_ != 0) {
            loop_->Cancel(bootstrap_timer_);
            bootstrap_timer_ = 0;
          }
          // Merging the dump is real work: charge it like a replication batch.
          const SimDuration service =
              config_->replicate_service +
              config_->bootstrap_per_key_service * static_cast<SimDuration>(dump.size());
          service_.Submit(service, [this, inc, dump = std::move(dump)]() {
            uint64_t merged = 0;
            for (const auto& [key, vv] : dump) {
              if (ApplyLww(key, vv.value, vv.version, /*log=*/true)) {
                merged += 1;
              }
            }
            last_recovery_.bootstrap_keys_merged += merged;
            if (bootstrap_round_ == 0) {
              // The first dump races the replication horizon: a write acked during the
              // outage may still be in flight to the dump-serving peer. One more round
              // after the fan-out has settled catches whatever the first one missed.
              bootstrap_round_ = 1;
              bootstrap_pending_ = true;
              bootstrap_timer_ =
                  loop_->Schedule(config_->bootstrap_settle_delay, [this, inc]() {
                    bootstrap_timer_ = 0;
                    if (inc == incarnation_ && bootstrap_pending_) {
                      StartBootstrap(0);
                    }
                  });
            } else {
              last_recovery_.bootstrap_complete = true;
              counters_.bootstraps_completed++;
            }
          });
        });
  });
  // The chosen peer may be dead too (it never answers): retry against the next one.
  bootstrap_timer_ = loop_->Schedule(config_->read_timeout, [this, inc, attempt]() {
    if (inc != incarnation_ || !bootstrap_pending_) {
      return;
    }
    counters_.bootstrap_retries++;
    StartBootstrap(attempt + 1);
  });
}

std::optional<VersionedValue> KvReplica::LocalGet(const std::string& key) const {
  auto it = storage_.find(key);
  if (it == storage_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void KvReplica::LocalPut(const std::string& key, std::string value, Version version) {
  const auto entry =
      storage_.insert_or_assign(key, VersionedValue{std::move(value), version}).first;
  MarkChanged(entry);
  // Preloads are part of the durable dataset: log + sync so a crashed replica's recovered
  // state includes them without leaning on the bootstrap. They are applied at every
  // replica by construction, so they are cluster-visible immediately.
  replicated_lsn_ = std::max(replicated_lsn_, wal_.Append(key, entry->second.value, version));
  wal_.Sync();
}

}  // namespace icg

// Quorum-store protocol tests: coordinator read/write paths, replication, read repair,
// ICG preliminary flushing, confirmations, multireads, and crash behaviour.
//
// The single-key cases are SHAPED_TESTs: each runs as Get/Put and as a one-key
// MultiGet/MultiPut, on a fresh cluster (tests/wire_shape.h).
#include "src/kvstore/replica.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/kvstore/cluster.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"
#include "tests/wire_shape.h"

namespace icg {
namespace {

class ReplicaTest : public WireShapeTest {
 protected:
  ReplicaTest()
      : topology_(RttMatrix::Ec2Default()),
        network_(&loop_, &topology_, /*seed=*/1, /*jitter_sigma=*/0.0),
        cluster_(&network_, &topology_, &config_,
                 {Region::kFrankfurt, Region::kIreland, Region::kVirginia}) {
    client_ = cluster_.MakeClient(Region::kIreland, Region::kFrankfurt);
  }

  // Convenience synchronous-style helpers driving the loop to completion.
  StatusOr<OpResult> Read(const std::string& key, int quorum) {
    ReadOptions options;
    options.read_quorum = quorum;
    return Read(ReadOf(key), options);
  }

  StatusOr<OpResult> Read(ReadRequest request, const ReadOptions& options) {
    StatusOr<OpResult> out(Status::Internal("no response"));
    client_->Read(std::move(request), options,
                  [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
                    if (is_final) {
                      out = std::move(r);
                    }
                  });
    loop_.Run();
    return out;
  }

  StatusOr<OpResult> Write(const std::string& key, const std::string& value) {
    StatusOr<OpResult> out(Status::Internal("no response"));
    client_->Write(WriteOf(key, value),
                   [&](StatusOr<OpResult> r, bool, ResponseKind) { out = std::move(r); });
    loop_.Run();
    return out;
  }

  EventLoop loop_;
  Topology topology_;
  Network network_;
  KvConfig config_;
  KvCluster cluster_;
  std::unique_ptr<KvClient> client_;
};

SHAPED_TEST(ReplicaTest, ReadMissingKeyReturnsNotFound) {
  const auto result = Read("nope", 1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->found);
}

SHAPED_TEST(ReplicaTest, PreloadedValueReadableAtAllQuorums) {
  cluster_.Preload("k", "v");
  for (const int quorum : {1, 2, 3}) {
    const auto result = Read("k", quorum);
    ASSERT_TRUE(result.ok()) << "R=" << quorum;
    EXPECT_EQ(result->value, "v") << "R=" << quorum;
  }
}

SHAPED_TEST(ReplicaTest, WriteAcksWithVersion) {
  const auto ack = Write("k", "v1");
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->found);
  EXPECT_GT(ack->version.timestamp, 0);
  EXPECT_EQ(ack->version.writer, client_->coordinator_id());
}

SHAPED_TEST(ReplicaTest, WriteReplicatesToAllReplicasEventually) {
  Write("k", "v1");
  loop_.RunFor(Seconds(1));
  for (const auto& replica : cluster_.replicas()) {
    const auto local = replica->LocalGet("k");
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(local->value, "v1");
  }
}

SHAPED_TEST(ReplicaTest, LastWriterWinsAcrossCoordinators) {
  auto other_client = cluster_.MakeClient(Region::kVirginia, Region::kVirginia);
  Write("k", "first");
  bool done = false;
  other_client->Write(WriteOf("k", "second"),
                      [&](StatusOr<OpResult>, bool, ResponseKind) { done = true; });
  loop_.Run();
  ASSERT_TRUE(done);
  loop_.RunFor(Seconds(1));  // replication settles
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->LocalGet("k")->value, "second");
  }
}

SHAPED_TEST(ReplicaTest, QuorumReadSeesFreshestReplica) {
  // Install a stale copy on the coordinator and a fresh one elsewhere.
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  const auto weak = Read("k", 1);
  EXPECT_EQ(weak->value, "stale");  // local read at FRK
  const auto strong = Read("k", 2);
  EXPECT_EQ(strong->value, "fresh");  // quorum includes IRL
}

SHAPED_TEST(ReplicaTest, ReadRepairUpdatesCoordinator) {
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  Read("k", 2);
  loop_.RunFor(Seconds(1));
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->LocalGet("k")->value, "fresh");
}

SHAPED_TEST(ReplicaTest, ReadRepairUpdatesStalePeers) {
  // The coordinator holds the fresh copy; both peers it asks are stale.
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kFrankfurt)->LocalPut("k", "fresh", Version{999, 1});
  Read("k", 3);
  loop_.RunFor(Seconds(1));
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->LocalGet("k")->value, "fresh") << "replica " << replica->id();
  }
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->counters().read_repairs, 2);
}

SHAPED_TEST(ReplicaTest, ReadRepairDisabledLeavesStaleCopy) {
  config_.read_repair = false;
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  Read("k", 2);
  loop_.RunFor(Seconds(1));
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->LocalGet("k")->value, "stale");
}

SHAPED_TEST(ReplicaTest, IcgReadDeliversPreliminaryBeforeFinal) {
  cluster_.Preload("k", "v");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  std::vector<bool> finality;
  client_->Read(ReadOf("k"), options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    ASSERT_TRUE(r.ok());
    finality.push_back(is_final);
  });
  loop_.Run();
  EXPECT_EQ(finality, (std::vector<bool>{false, true}));
}

SHAPED_TEST(ReplicaTest, IcgConfirmationWhenPreliminaryMatches) {
  cluster_.Preload("k", "v");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  ResponseKind final_kind = ResponseKind::kValue;
  client_->Read(ReadOf("k"), options, [&](StatusOr<OpResult>, bool is_final, ResponseKind kind) {
    if (is_final) {
      final_kind = kind;
    }
  });
  loop_.Run();
  EXPECT_EQ(final_kind, ResponseKind::kConfirmation);
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->counters().confirmations_sent, 1);
}

SHAPED_TEST(ReplicaTest, IcgFullFinalWhenDiverged) {
  cluster_.Preload("k", "stale");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("k", "fresh", Version{999, 1});
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  ResponseKind final_kind = ResponseKind::kConfirmation;
  std::string final_value;
  client_->Read(ReadOf("k"), options,
                [&](StatusOr<OpResult> r, bool is_final, ResponseKind kind) {
                  if (is_final) {
                    final_kind = kind;
                    final_value = r->value;
                  }
                });
  loop_.Run();
  EXPECT_EQ(final_kind, ResponseKind::kValue);
  EXPECT_EQ(final_value, "fresh");
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->counters().divergent_finals, 1);
}

SHAPED_TEST(ReplicaTest, QuorumTimesOutWhenPeersCrashed) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kIreland)->id());
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->counters().read_timeouts, 1);
}

SHAPED_TEST(ReplicaTest, R2SurvivesOneCrash) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "v");
}

SHAPED_TEST(ReplicaTest, WeakReadUnaffectedByRemoteCrashes) {
  cluster_.Preload("k", "v");
  network_.Crash(cluster_.ReplicaIn(Region::kIreland)->id());
  network_.Crash(cluster_.ReplicaIn(Region::kVirginia)->id());
  const auto result = Read("k", 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value, "v");
}

SHAPED_TEST(ReplicaTest, StrongReadFinishesOnAnyRReplies) {
  // The coordinator's queue is busy for 500 ms, far past both peers' replies: a strong
  // read with R = 2 completes on the two peer responses without its own local read.
  cluster_.Preload("k", "v");
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  frk->service_queue().Submit(Millis(500), [] {});
  SimTime finished_at = 0;
  ReadOptions options;
  options.read_quorum = 2;
  client_->Read(ReadOf("k"), options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->value, "v");
    if (is_final) {
      finished_at = loop_.Now();
    }
  });
  loop_.Run();
  EXPECT_GT(finished_at, 0);
  EXPECT_LT(finished_at, Millis(500));
}

TEST_F(ReplicaTest, MultiReadReturnsJoinedValues) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  ReadOptions options;
  options.read_quorum = 2;
  const auto out = Read(ReadRequest::MultiGet({"a", "b"}), options);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->found);
  EXPECT_EQ(out->seqno, 2);  // both found
  EXPECT_EQ(out->value, std::string("va") + kMultiValueSeparator + "vb");
}

TEST_F(ReplicaTest, MultiReadMissingKeyClearsFound) {
  cluster_.Preload("a", "va");
  ReadOptions options;
  options.read_quorum = 1;
  const auto out = Read(ReadRequest::MultiGet({"a", "missing"}), options);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->found);
  EXPECT_EQ(out->seqno, 1);
}

TEST_F(ReplicaTest, MultiReadMergesPerKeyAcrossReplicas) {
  cluster_.Preload("a", "stale-a");
  cluster_.Preload("b", "stale-b");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("a", "fresh-a", Version{999, 1});
  cluster_.ReplicaIn(Region::kVirginia)->LocalPut("b", "fresh-b", Version{999, 2});
  ReadOptions options;
  options.read_quorum = 3;
  const auto out = Read(ReadRequest::MultiGet({"a", "b"}), options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value, std::string("fresh-a") + kMultiValueSeparator + "fresh-b");
}

TEST_F(ReplicaTest, MultiReadRepairsEveryStaleCopyPerKey) {
  // Each key is fresh on a different replica; every other copy of it is stale.
  cluster_.Preload("a", "stale-a");
  cluster_.Preload("b", "stale-b");
  cluster_.ReplicaIn(Region::kIreland)->LocalPut("a", "fresh-a", Version{999, 1});
  cluster_.ReplicaIn(Region::kVirginia)->LocalPut("b", "fresh-b", Version{999, 2});
  ReadOptions options;
  options.read_quorum = 3;
  Read(ReadRequest::MultiGet({"a", "b"}), options);
  loop_.RunFor(Seconds(1));
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->LocalGet("a")->value, "fresh-a") << "replica " << replica->id();
    EXPECT_EQ(replica->LocalGet("b")->value, "fresh-b") << "replica " << replica->id();
  }
}

TEST_F(ReplicaTest, EmptyRequestsRejected) {
  ReadOptions options;
  options.read_quorum = 2;
  EXPECT_EQ(Read(ReadRequest::MultiGet({}), options).status().code(),
            StatusCode::kInvalidArgument);
  StatusOr<OpResult> ack(Status::Internal("no response"));
  client_->Write(WriteRequest::MultiPut({"a", "b"}, {"1"}),
                 [&](StatusOr<OpResult> r, bool, ResponseKind) { ack = std::move(r); });
  loop_.Run();
  EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster_.ReplicaIn(Region::kFrankfurt)->counters().multi_writes_coordinated, 0);
}

TEST_F(ReplicaTest, MultiReadIcgConfirmation) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  ReadOptions options;
  options.read_quorum = 2;
  options.want_preliminary = true;
  options.confirmations = true;
  std::vector<ResponseKind> kinds;
  client_->Read(ReadRequest::MultiGet({"a", "b"}), options,
                [&](StatusOr<OpResult>, bool, ResponseKind kind) { kinds.push_back(kind); });
  loop_.Run();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], ResponseKind::kValue);
  EXPECT_EQ(kinds[1], ResponseKind::kConfirmation);
}

SHAPED_TEST(ReplicaTest, ConcurrentReadsIndependent) {
  cluster_.Preload("a", "va");
  cluster_.Preload("b", "vb");
  std::string got_a;
  std::string got_b;
  ReadOptions options;
  options.read_quorum = 2;
  client_->Read(ReadOf("a"), options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      got_a = r->value;
    }
  });
  client_->Read(ReadOf("b"), options, [&](StatusOr<OpResult> r, bool is_final, ResponseKind) {
    if (is_final) {
      got_b = r->value;
    }
  });
  loop_.Run();
  EXPECT_EQ(got_a, "va");
  EXPECT_EQ(got_b, "vb");
}

SHAPED_TEST(ReplicaTest, CoordinatorMetricsCount) {
  cluster_.Preload("k", "v");
  Read("k", 2);
  Write("k", "v2");
  const KvReplica::Counters& counters = cluster_.ReplicaIn(Region::kFrankfurt)->counters();
  const bool single = shape_ == WireShape::kSingle;
  EXPECT_EQ(counters.reads_coordinated, single ? 1 : 0);
  EXPECT_EQ(counters.multireads_coordinated, single ? 0 : 1);
  EXPECT_EQ(counters.writes_coordinated, single ? 1 : 0);
  EXPECT_EQ(counters.multi_writes_coordinated, single ? 0 : 1);
}

// --- Crash & recovery (WAL + snapshot durability) --------------------------------------

SHAPED_TEST(ReplicaTest, CrashWipesVolatileStateAndDropsNewTraffic) {
  Write("k", "v1");
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  EXPECT_EQ(frk->incarnation(), 0u);
  network_.Crash(frk->id());
  frk->Crash();
  EXPECT_TRUE(frk->crashed());
  EXPECT_EQ(frk->incarnation(), 1u);
  EXPECT_EQ(frk->LocalSize(), 0u);
  EXPECT_FALSE(frk->LocalGet("k").has_value());
  // A write aimed at the corpse vanishes: no response, no state, no crash.
  bool responded = false;
  client_->Write(WriteOf("k", "v2"),
                 [&](StatusOr<OpResult>, bool, ResponseKind) { responded = true; });
  loop_.Run();
  EXPECT_FALSE(responded);
  EXPECT_EQ(frk->LocalSize(), 0u);
}

SHAPED_TEST(ReplicaTest, RecoverRestoresAckedWriteFromWalAfterTotalClusterCrash) {
  // Every replica dies, so nothing survives in volatile state or in-flight replication:
  // the acked write must come back from the coordinator's synced WAL alone.
  const auto ack = Write("k", "v1");
  ASSERT_TRUE(ack.ok());
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));  // anti-entropy bootstraps settle
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  const auto local = frk->LocalGet("k");
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->value, "v1");
  // Exactly the acked version: replay neither lost the write nor duplicated it under a
  // fresh stamp.
  EXPECT_EQ(local->version, ack->version);
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 1u);
  EXPECT_TRUE(frk->last_recovery().bootstrap_complete);
}

SHAPED_TEST(ReplicaTest, CrashBeforeAckLosesNothingAcknowledged) {
  // The client's write dies with the coordinator before any ack: after recovery the
  // store must NOT contain it (it was never acknowledged, losing it is correct — and
  // resurrecting half of a dead in-flight op would be wrong).
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  bool responded = false;
  client_->Write(WriteOf("k", "v1"),
                 [&](StatusOr<OpResult>, bool, ResponseKind) { responded = true; });
  // Crash before the loop runs: the request is still on the wire (sent pre-crash, so it
  // delivers) and the entry guard drops it.
  network_.Crash(frk->id());
  frk->Crash();
  loop_.Run();
  EXPECT_FALSE(responded);
  network_.Restart(frk->id());
  frk->Recover();
  loop_.RunFor(Seconds(2));
  EXPECT_FALSE(frk->LocalGet("k").has_value());
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 0u);
}

TEST_F(ReplicaTest, RecoveredReplicaCatchesUpViaBootstrap) {
  KvReplica* irl = cluster_.ReplicaIn(Region::kIreland);
  Write("k1", "v1");
  network_.Crash(irl->id());
  irl->Crash();
  Write("k2", "v2");  // replication toward the corpse is dropped at send
  network_.Restart(irl->id());
  irl->Recover();
  loop_.RunFor(Seconds(2));
  // IRL never logged k2 (it was down) and its lazy replicated copy of k1 was unsynced;
  // both arrive through the anti-entropy dump from the nearest live peer.
  ASSERT_TRUE(irl->LocalGet("k1").has_value());
  ASSERT_TRUE(irl->LocalGet("k2").has_value());
  EXPECT_EQ(irl->LocalGet("k2")->value, "v2");
  EXPECT_TRUE(irl->last_recovery().bootstrap_complete);
  EXPECT_GE(irl->last_recovery().bootstrap_keys_merged, 2u);
  EXPECT_GE(cluster_.ReplicaIn(Region::kFrankfurt)->counters().bootstraps_served, 1);
}

TEST_F(ReplicaTest, SnapshotPlusWalTailRebuildsExactState) {
  config_.snapshot_every = 2;
  for (int i = 0; i < 5; ++i) {
    Write("k" + std::to_string(i), "v" + std::to_string(i));
  }
  loop_.RunFor(Seconds(1));  // background snapshots land
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  ASSERT_NE(frk->snapshots(), nullptr);
  EXPECT_TRUE(frk->snapshots()->HasSnapshot());
  EXPECT_GT(frk->wal()->truncated_through(), 0u);  // covered prefix truncated
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));
  for (int i = 0; i < 5; ++i) {
    const auto local = frk->LocalGet("k" + std::to_string(i));
    ASSERT_TRUE(local.has_value()) << "k" << i;
    EXPECT_EQ(local->value, "v" + std::to_string(i));
  }
  EXPECT_GT(frk->last_recovery().snapshot_entries, 0u);
  EXPECT_LT(frk->last_recovery().wal_records_replayed, 5u);  // snapshot bounded replay
}

// Replicates `count` versions of `key` into `replica` directly (no network), each a
// lazily logged WAL record that advances the snapshot cadence by one.
void ReplicateVersions(KvReplica* replica, const std::string& key, int count,
                       SimTime* stamp) {
  for (int i = 0; i < count; ++i) {
    *stamp += 1;
    replica->HandleReplicate(key, VersionedValue{key + std::to_string(*stamp),
                                                 Version{*stamp, /*writer=*/9}});
  }
}

TEST_F(ReplicaTest, DeltaSnapshotChargesOnlyTheDistinctChangedKeys) {
  config_.snapshot_every = 4;
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  for (int i = 0; i < 10; ++i) {
    frk->LocalPut("p" + std::to_string(i), "v", Version{1, 1});
  }
  SimTime stamp = 100;
  // The first cut has no base to extend: it writes the whole 11-entry store.
  ReplicateVersions(frk, "a", 1, &stamp);
  loop_.Run();
  ASSERT_EQ(frk->snapshots()->base_entries(), 11u);
  ASSERT_EQ(frk->counters().delta_snapshots, 0);

  // Four records over three keys: the next cut holds "a", "b" and "c" once each.
  const SimDuration busy_before = frk->service_queue().total_busy_time();
  frk->LocalPut("c", "v", Version{1, 1});
  ReplicateVersions(frk, "a", 2, &stamp);
  ReplicateVersions(frk, "b", 1, &stamp);
  loop_.Run();
  EXPECT_EQ(frk->counters().delta_snapshots, 1);
  EXPECT_EQ(frk->snapshots()->segments(), 1u);
  EXPECT_EQ(frk->snapshots()->delta_entries(), 3u);
  EXPECT_EQ(frk->counters().snapshot_entries_written, 11 + 3);
  EXPECT_EQ(frk->service_queue().total_busy_time() - busy_before,
            3 * config_.replicate_service + config_.snapshot_base_service +
                3 * config_.snapshot_per_entry_service);
}

TEST_F(ReplicaTest, KeyWrittenManyTimesBetweenCutsIsSerializedOnce) {
  config_.snapshot_every = 100;
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  for (int i = 0; i < 150; ++i) {
    frk->LocalPut("p" + std::to_string(i), "v", Version{1, 1});
  }
  SimTime stamp = 100;
  ReplicateVersions(frk, "hot", 1, &stamp);  // the base cut
  loop_.Run();
  ASSERT_EQ(frk->snapshots()->base_entries(), 151u);
  const int64_t written_before = frk->counters().snapshot_entries_written;

  ReplicateVersions(frk, "hot", 100, &stamp);
  loop_.Run();
  EXPECT_EQ(frk->counters().delta_snapshots, 1);
  EXPECT_EQ(frk->snapshots()->delta_entries(), 1u);
  EXPECT_EQ(frk->counters().snapshot_entries_written - written_before, 1);

  SnapshotManager::Store loaded;
  uint64_t through = 0;
  ASSERT_TRUE(frk->snapshots()->Load(&loaded, &through));
  EXPECT_EQ(loaded.at("hot"), *frk->LocalGet("hot"));  // the newest of the 100 versions
}

TEST_F(ReplicaTest, SnapshotsOffKeepNoChangeList) {
  ASSERT_EQ(config_.snapshot_every, 0);
  cluster_.Preload("k", "v");
  for (int i = 0; i < 20; ++i) {
    Write("k" + std::to_string(i), "v");
  }
  for (const auto& replica : cluster_.replicas()) {
    EXPECT_EQ(replica->changed_since_cut(), 0u);
    EXPECT_FALSE(replica->snapshots()->HasSnapshot());
  }

  // The same traffic with snapshots on does track changes once a base exists.
  config_.snapshot_every = 4;
  for (int i = 0; i < 6; ++i) {
    Write("k" + std::to_string(i), "w");
  }
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  EXPECT_TRUE(frk->snapshots()->HasSnapshot());
  EXPECT_GT(frk->changed_since_cut(), 0u);
}

TEST_F(ReplicaTest, RecoverFromBasePlusDeltasRebuildsThePreCrashState) {
  config_.snapshot_every = 4;
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("p" + std::to_string(i));
    cluster_.Preload(keys.back(), "v");
  }
  for (int i = 0; i < 60; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  auto state = [&] {
    std::map<std::string, VersionedValue> out;
    for (const std::string& key : keys) {
      if (const auto local = frk->LocalGet(key)) out.emplace(key, *local);
    }
    EXPECT_EQ(frk->LocalSize(), out.size());
    return out;
  };
  // Round 0 takes a base, a rewrite and several deltas. Round 1 writes a few fresh keys:
  // its deltas truncate the WAL records replayed after the first crash, so the second
  // recovery needs the replay to have marked those keys changed.
  const int writes[2] = {50, 10};
  for (int round = 0; round < 2; ++round) {
    const KvReplica::Counters& counters = frk->counters();
    const int64_t deltas_before = counters.delta_snapshots;
    const int64_t bases_before = counters.snapshots_taken - deltas_before;
    // Every write is coordinated (and fsynced) by FRK, so its whole store is synced.
    for (int i = 0; i < writes[round]; ++i) {
      Write(keys[20 + 30 * round + i % 30], "v" + std::to_string(i));
    }
    const int64_t deltas = counters.delta_snapshots - deltas_before;
    const int64_t bases = counters.snapshots_taken - counters.delta_snapshots - bases_before;
    if (round == 0) {
      EXPECT_GE(deltas, 3);
      EXPECT_GE(bases, 2);  // the first base plus at least one rewrite
    } else {
      EXPECT_GE(deltas, 1);
      EXPECT_EQ(bases, 0);  // a rewrite would cover the replayed keys whether marked or not
    }
    ASSERT_GE(frk->snapshots()->segments(), 1u);  // recovery has deltas to apply
    const auto before = state();

    network_.Crash(frk->id());
    frk->Crash();
    network_.Restart(frk->id());
    frk->Recover();
    // Compared before the loop runs: base + deltas + WAL tail alone, no anti-entropy yet.
    EXPECT_GT(frk->last_recovery().snapshot_entries, 0u);
    EXPECT_GT(frk->last_recovery().wal_records_replayed, 0u);
    EXPECT_EQ(state(), before) << "round " << round;
    loop_.RunFor(Seconds(2));
    EXPECT_TRUE(frk->last_recovery().bootstrap_complete);
  }
}

// Preloads 10 keys and takes the base, then sends writes to k0..k5 in one burst: they
// queue at FRK together, the delta cut lands on the fourth (k3), and k4 and k5 append
// after it. Runs until the delta snapshot job has run and returns FRK.
KvReplica* BurstPastADeltaCut(EventLoop& loop, KvCluster& cluster, KvClient& client) {
  for (int i = 0; i < 10; ++i) {
    cluster.Preload("p" + std::to_string(i), "v");
  }
  KvReplica* frk = cluster.ReplicaIn(Region::kFrankfurt);
  client.Write(WriteRequest::Put("base", "v"), [](StatusOr<OpResult>, bool, ResponseKind) {});
  loop.Run();
  EXPECT_EQ(frk->snapshots()->base_entries(), 11u);
  for (int i = 0; i < 6; ++i) {
    client.Write(WriteRequest::Put("k" + std::to_string(i), "v"),
                 [](StatusOr<OpResult>, bool, ResponseKind) {});
  }
  while (frk->counters().delta_snapshots == 0 && loop.RunOne()) {
  }
  EXPECT_EQ(frk->snapshots()->delta_entries(), 4u);  // k0..k3
  return frk;
}

TEST_F(ReplicaTest, SnapshotTruncatesTheWalOnlyThroughTheCut) {
  config_.snapshot_every = 4;
  KvReplica* frk = BurstPastADeltaCut(loop_, cluster_, *client_);
  // k4 and k5 were fanned out before the delta job ran, but the delta does not hold
  // them: their WAL records must survive the truncation.
  std::map<std::string, VersionedValue> before;
  for (int i = 0; i < 6; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(frk->LocalGet(key).has_value()) << key;
    before.emplace(key, *frk->LocalGet(key));
  }
  network_.Crash(frk->id());
  frk->Crash();
  network_.Restart(frk->id());
  frk->Recover();
  for (const auto& [key, vv] : before) {
    const auto local = frk->LocalGet(key);
    ASSERT_TRUE(local.has_value()) << key;
    EXPECT_EQ(*local, vv) << key;
  }
  loop_.RunFor(Seconds(2));
}

TEST_F(ReplicaTest, SnapshotNeverCoversAnUnreplicatedRecord) {
  // With an fsync charge the delta job runs before k3's ack and fan-out: k3 is in the
  // delta, yet its record must stay in the replayed tail so the recovery push still
  // replicates it after a crash at that moment.
  config_.snapshot_every = 4;
  for (const auto& replica : cluster_.replicas()) {
    replica->wal()->SetFaults(WalFaults{/*fsync_latency=*/Micros(120), /*torn_tail=*/false});
  }
  KvReplica* frk = BurstPastADeltaCut(loop_, cluster_, *client_);
  network_.Crash(frk->id());
  frk->Crash();
  network_.Restart(frk->id());
  frk->Recover();
  loop_.RunFor(Seconds(2));
  for (int i = 0; i < 6; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto local = frk->LocalGet(key);
    ASSERT_TRUE(local.has_value()) << key;  // k3 from the delta, k4 and k5 from the WAL
    for (const auto& replica : cluster_.replicas()) {
      EXPECT_EQ(replica->LocalGet(key), local) << key << " at replica " << replica->id();
    }
  }
}

SHAPED_TEST(ReplicaTest, WriteVersionsStayMonotoneAcrossRecovery) {
  const auto first = Write("k", "v1");
  ASSERT_TRUE(first.ok());
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  network_.Crash(frk->id());
  frk->Crash();
  network_.Restart(frk->id());
  frk->Recover();
  loop_.RunFor(Seconds(1));
  const auto second = Write("k", "v2");
  ASSERT_TRUE(second.ok());
  // The restored write clock keeps LWW stamps advancing: the post-recovery write wins.
  EXPECT_TRUE(first->version < second->version);
  EXPECT_EQ(frk->LocalGet("k")->value, "v2");
}

TEST_F(ReplicaTest, MultiWriteGroupCommitSurvivesTotalCrashAtomically) {
  // One cohort, one fsync: either the whole batch is durable or none of it. After the
  // ack the whole batch must replay.
  StatusOr<OpResult> ack(Status::Internal("none"));
  client_->Write(WriteRequest::MultiPut({"a", "b", "c"}, {"1", "2", "3"}),
                 [&](StatusOr<OpResult> r, bool, ResponseKind) { ack = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  for (const auto& replica : cluster_.replicas()) {
    network_.Crash(replica->id());
    replica->Crash();
  }
  for (const auto& replica : cluster_.replicas()) {
    network_.Restart(replica->id());
    replica->Recover();
  }
  loop_.RunFor(Seconds(2));
  KvReplica* frk = cluster_.ReplicaIn(Region::kFrankfurt);
  EXPECT_EQ(frk->last_recovery().wal_records_replayed, 3u);
  EXPECT_EQ(frk->LocalGet("a")->value, "1");
  EXPECT_EQ(frk->LocalGet("b")->value, "2");
  EXPECT_EQ(frk->LocalGet("c")->value, "3");
}

}  // namespace
}  // namespace icg

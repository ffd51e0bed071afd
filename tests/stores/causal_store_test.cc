// Causal store and client cache tests. The single-key store cases are SHAPED_TESTs:
// each runs as Get/Put and as a one-key MultiGet/MultiPut, on a fresh cluster
// (tests/wire_shape.h).
#include "src/stores/causal_store.h"

#include <gtest/gtest.h>

#include "src/sim/network.h"
#include "tests/wire_shape.h"

namespace icg {
namespace {

class CausalStoreTest : public WireShapeTest {
 protected:
  CausalStoreTest()
      : topology_(RttMatrix::Ec2Default()),
        network_(&loop_, &topology_, 1, 0.0),
        cluster_(&network_, &topology_, &config_,
                 {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {}

  EventLoop loop_;
  Topology topology_;
  Network network_;
  CausalConfig config_;
  CausalCluster cluster_;
};

SHAPED_TEST(CausalStoreTest, ReadOwnWriteAtOriginReplica) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  bool acked = false;
  client->Write(WriteOf("k", "v"), [&](StatusOr<OpResult>) { acked = true; });
  loop_.Run();
  ASSERT_TRUE(acked);
  StatusOr<OpResult> read(Status::Internal("none"));
  client->Read(ReadOf("k"), [&](StatusOr<OpResult> r) { read = std::move(r); });
  loop_.Run();
  EXPECT_EQ(read->value, "v");
}

SHAPED_TEST(CausalStoreTest, WritesPropagateToAllReplicas) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write(WriteOf("k", "v"), [](StatusOr<OpResult>) {});
  loop_.Run();
  for (const Region r : {Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k").value(), "v");
  }
}

SHAPED_TEST(CausalStoreTest, PerOriginFifoOrder) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write(WriteOf("k", "v1"), [](StatusOr<OpResult>) {});
  client->Write(WriteOf("k", "v2"), [](StatusOr<OpResult>) {});
  client->Write(WriteOf("k", "v3"), [](StatusOr<OpResult>) {});
  loop_.Run();
  // All replicas converge to the last write of the FIFO stream.
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k").value(), "v3");
  }
}

SHAPED_TEST(CausalStoreTest, CausalDependencyRespected) {
  // Writer A (IRL) writes x; writer B (FRK) reads x, then writes y depending on it.
  // No replica may apply y before x.
  auto writer_a = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  auto writer_b = cluster_.MakeClient(Region::kFrankfurt, Region::kFrankfurt);

  writer_a->Write(WriteOf("x", "1"), [](StatusOr<OpResult>) {});
  loop_.Run();  // x reaches FRK

  StatusOr<OpResult> seen(Status::Internal("none"));
  writer_b->Read(ReadOf("x"), [&](StatusOr<OpResult> r) { seen = std::move(r); });
  loop_.Run();
  ASSERT_EQ(seen->value, "1");

  writer_b->Write(WriteOf("y", "after-x"), [](StatusOr<OpResult>) {});
  loop_.Run();
  // Every replica that has y must also have x (causal cut).
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    CausalReplica* replica = cluster_.ReplicaIn(r);
    if (replica->LocalGet("y").has_value()) {
      EXPECT_TRUE(replica->LocalGet("x").has_value()) << RegionName(r);
    }
  }
  EXPECT_EQ(cluster_.ReplicaIn(Region::kVirginia)->LocalGet("y").value(), "after-x");
}

SHAPED_TEST(CausalStoreTest, AppliedClockAdvances) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  client->Write(WriteOf("a", "1"), [](StatusOr<OpResult>) {});
  client->Write(WriteOf("b", "2"), [](StatusOr<OpResult>) {});
  loop_.Run();
  // Origin 0 (IRL) has issued two writes; every replica applied both.
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->applied_clock()[0], 2) << RegionName(r);
  }
}

SHAPED_TEST(CausalStoreTest, ConcurrentWritesConvergeLww) {
  auto a = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  auto b = cluster_.MakeClient(Region::kVirginia, Region::kVirginia);
  a->Write(WriteOf("k", "from-a"), [](StatusOr<OpResult>) {});
  b->Write(WriteOf("k", "from-b"), [](StatusOr<OpResult>) {});
  loop_.Run();
  const auto v0 = cluster_.ReplicaIn(Region::kIreland)->LocalGet("k");
  for (const Region r : {Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("k"), v0);  // all replicas agree
  }
}

TEST_F(CausalStoreTest, BatchedWriteAppliesInOrderAndReadJoinsKeys) {
  auto client = cluster_.MakeClient(Region::kIreland, Region::kIreland);
  StatusOr<OpResult> ack(Status::Internal("none"));
  client->Write(WriteRequest::MultiPut({"a", "b", "a"}, {"1", "2", "3"}),
                [&](StatusOr<OpResult> r) { ack = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->seqno, 3);
  ASSERT_EQ(ack->key_versions.size(), 3u);
  EXPECT_EQ(ack->version, ack->key_versions[2]);
  // Each entry is its own causal write: every replica applied all three, in order.
  for (const Region r : {Region::kIreland, Region::kFrankfurt, Region::kVirginia}) {
    EXPECT_EQ(cluster_.ReplicaIn(r)->applied_clock()[0], 3) << RegionName(r);
    EXPECT_EQ(cluster_.ReplicaIn(r)->LocalGet("a").value(), "3") << RegionName(r);
  }

  StatusOr<OpResult> read(Status::Internal("none"));
  client->Read(ReadRequest::MultiGet({"a", "b"}),
               [&](StatusOr<OpResult> r) { read = std::move(r); });
  loop_.Run();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->found);
  EXPECT_EQ(read->value, std::string("3") + kMultiValueSeparator + "2");
}

TEST(ClientCache, HitAndMissCounting) {
  ClientCache cache;
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.misses(), 1);
  OpResult r;
  r.found = true;
  r.value = "v";
  cache.Put("k", r);
  ASSERT_TRUE(cache.Get("k").has_value());
  EXPECT_EQ(cache.Get("k")->value, "v");
  EXPECT_EQ(cache.hits(), 2);
}

TEST(ClientCache, PutOverwrites) {
  ClientCache cache;
  OpResult r1;
  r1.found = true;
  r1.value = "v1";
  OpResult r2 = r1;
  r2.value = "v2";
  cache.Put("k", r1);
  cache.Put("k", r2);
  EXPECT_EQ(cache.Get("k")->value, "v2");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ClientCache, InvalidateRemoves) {
  ClientCache cache;
  OpResult r;
  r.found = true;
  cache.Put("k", r);
  cache.Invalidate("k");
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST(ClientCache, EvictsAtCapacity) {
  ClientCache cache(/*capacity=*/3);
  OpResult r;
  r.found = true;
  for (int i = 0; i < 5; ++i) {
    cache.Put("k" + std::to_string(i), r);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Get("k0").has_value());  // oldest evicted
  EXPECT_TRUE(cache.Get("k4").has_value());
}

TEST(ClientCache, ClearEmpties) {
  ClientCache cache;
  OpResult r;
  r.found = true;
  cache.Put("k", r);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace icg

#include "src/kvstore/partitioner.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace icg {
namespace {

TEST(Partitioner, ReplicaSetHasRfDistinctNodes) {
  Partitioner p({0, 1, 2}, /*replication_factor=*/3);
  const auto replicas = p.ReplicasFor("some-key");
  EXPECT_EQ(replicas.size(), 3u);
  EXPECT_EQ(std::set<NodeId>(replicas.begin(), replicas.end()).size(), 3u);
}

TEST(Partitioner, RfCappedByNodeCount) {
  Partitioner p({0, 1}, /*replication_factor=*/3);
  EXPECT_EQ(p.ReplicasFor("k").size(), 2u);
}

TEST(Partitioner, RfOneSelectsSingleNode) {
  Partitioner p({0, 1, 2, 3}, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.ReplicasFor("key" + std::to_string(i)).size(), 1u);
  }
}

TEST(Partitioner, Deterministic) {
  Partitioner a({0, 1, 2}, 2);
  Partitioner b({0, 1, 2}, 2);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(a.ReplicasFor(key), b.ReplicasFor(key));
  }
}

// PrimaryFor reads the owning vnode directly; it must name the same node the replica
// walk puts first, at every replication factor and on successor rings too.
TEST(Partitioner, PrimaryIsFirstReplica) {
  for (const int rf : {1, 2, 3}) {
    std::vector<Partitioner> rings;
    rings.emplace_back(std::vector<NodeId>{0, 1, 2}, rf);
    rings.push_back(rings.back().WithNodes({0, 1, 2, 3}));  // a join
    rings.push_back(rings.back().WithNodes({0, 2, 3}));     // a leave
    rings.push_back(rings.back().WithNodes({3}));           // down to one node
    for (const Partitioner& ring : rings) {
      int mismatches = 0;
      for (int i = 0; i < 10000; ++i) {
        const std::string key = "k" + std::to_string(i);
        mismatches += ring.PrimaryFor(key) != ring.ReplicasFor(key).front() ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0) << "rf " << rf << " epoch " << ring.epoch();
    }
  }
}

TEST(Partitioner, DifferentKeysSpreadAcrossPrimaries) {
  Partitioner p({0, 1, 2, 3, 4}, 1);
  std::set<NodeId> primaries;
  for (int i = 0; i < 200; ++i) {
    primaries.insert(p.PrimaryFor("key" + std::to_string(i)));
  }
  EXPECT_EQ(primaries.size(), 5u);  // every node owns something
}

TEST(Partitioner, LoadRoughlyBalanced) {
  Partitioner p({0, 1, 2, 3}, 1, /*vnodes_per_node=*/64);
  const auto load = p.PrimaryLoadEstimate(20000);
  for (const auto& [node, share] : load) {
    EXPECT_GT(share, 0.15) << "node " << node;
    EXPECT_LT(share, 0.40) << "node " << node;
  }
}

class PartitionerVnodes : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerVnodes, MoreVnodesImproveBalance) {
  Partitioner p({0, 1, 2}, 1, GetParam());
  const auto load = p.PrimaryLoadEstimate(9000);
  double max_share = 0;
  for (const auto& [node, share] : load) {
    max_share = std::max(max_share, share);
  }
  // Perfect balance is 1/3; allow generous skew for few vnodes, tight for many.
  const double bound = GetParam() >= 64 ? 0.45 : 0.80;
  EXPECT_LT(max_share, bound);
}

INSTANTIATE_TEST_SUITE_P(VnodeSweep, PartitionerVnodes, ::testing::Values(1, 4, 16, 64, 256));

TEST(Partitioner, SingleNodeOwnsEverything) {
  Partitioner p({7}, 3);
  EXPECT_EQ(p.ReplicasFor("anything"), std::vector<NodeId>{7});
}

// --- Ring-rebalance stability: the property sharded routing depends on ------------------
// Consistent hashing's contract is that membership changes move only the departing or
// arriving node's share of primary ownership (~1/N), never reshuffling keys between
// surviving nodes. This is what makes adding a coordinator to a BindingRouter ring cheap.

TEST(Partitioner, AddingOneNodeStealsOnlyItsShare) {
  constexpr int kKeys = 20000;
  const Partitioner before({0, 1, 2, 3}, 1, /*vnodes_per_node=*/64);
  const Partitioner after({0, 1, 2, 3, 4}, 1, /*vnodes_per_node=*/64);
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    const NodeId pb = before.PrimaryFor(key);
    const NodeId pa = after.PrimaryFor(key);
    if (pb != pa) {
      moved++;
      // Every move must be a capture by the new node; two old nodes never trade keys.
      EXPECT_EQ(pa, 4) << key << " moved between surviving nodes";
    }
  }
  // Ideal share is 1/5 of the keyspace; allow vnode-placement skew around it.
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.35);
}

TEST(Partitioner, RemovingOneNodeRedistributesOnlyItsKeys) {
  constexpr int kKeys = 20000;
  const Partitioner before({0, 1, 2, 3, 4}, 1, /*vnodes_per_node=*/64);
  const Partitioner after({0, 1, 2, 3}, 1, /*vnodes_per_node=*/64);
  int orphaned = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    const NodeId pb = before.PrimaryFor(key);
    const NodeId pa = after.PrimaryFor(key);
    if (pb == 4) {
      orphaned++;
      EXPECT_NE(pa, 4) << key;
    } else {
      // Keys not owned by the removed node keep their primary untouched.
      EXPECT_EQ(pa, pb) << key << " reshuffled between surviving nodes";
    }
  }
  const double fraction = static_cast<double>(orphaned) / kKeys;
  EXPECT_GT(fraction, 0.10);
  EXPECT_LT(fraction, 0.35);
}

// --- Versioned rings + Diff: what live rebalancing consumes -----------------------------

TEST(PartitionerDiff, EpochsStrictlyIncreaseAlongSuccessorChains) {
  Partitioner ring({0, 1, 2}, 1);
  EXPECT_EQ(ring.epoch(), 0u);
  Partitioner grown = ring.WithNodes({0, 1, 2, 3});
  Partitioner shrunk = grown.WithNodes({0, 1, 3});
  EXPECT_EQ(grown.epoch(), 1u);
  EXPECT_EQ(shrunk.epoch(), 2u);
  EXPECT_GT(grown.epoch(), ring.epoch());
  EXPECT_GT(shrunk.epoch(), grown.epoch());
  // The diff records the epochs it spans, and membership deltas come out right.
  const auto diff = Partitioner::Diff(ring, grown);
  EXPECT_EQ(diff.from_epoch, 0u);
  EXPECT_EQ(diff.to_epoch, 1u);
  EXPECT_EQ(diff.added_nodes, std::vector<NodeId>{3});
  EXPECT_TRUE(diff.removed_nodes.empty());
  const auto back = Partitioner::Diff(grown, shrunk);
  EXPECT_EQ(back.removed_nodes, std::vector<NodeId>{2});
  EXPECT_TRUE(back.added_nodes.empty());
}

TEST(PartitionerDiff, ConsistentWithReplicasForOnEveryProbedKey) {
  const Partitioner before({0, 1, 2, 3}, 1, /*vnodes_per_node=*/64);
  const Partitioner after = before.WithNodes({0, 1, 2, 3, 4});
  const auto diff = Partitioner::Diff(before, after);
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "key" + std::to_string(i);
    const NodeId primary_before = before.ReplicasFor(key).front();
    const NodeId primary_after = after.ReplicasFor(key).front();
    EXPECT_EQ(diff.MovedKey(key), primary_before != primary_after)
        << key << ": diff and ReplicasFor disagree";
  }
}

TEST(PartitionerDiff, MovedShareMatchesOneOverNExpectation) {
  // Joining the 5th node should capture ~1/5 of the token space (vnode placement skew
  // allowed), and the key-level moved set must match the range-level fraction.
  const Partitioner before({0, 1, 2, 3}, 1, /*vnodes_per_node=*/64);
  const Partitioner after = before.WithNodes({0, 1, 2, 3, 4});
  const auto diff = Partitioner::Diff(before, after);
  EXPECT_GT(diff.MovedFraction(), 0.10);
  EXPECT_LT(diff.MovedFraction(), 0.35);

  constexpr int kKeys = 20000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (diff.MovedKey(key)) {
      moved++;
      // Every move must be a capture by the newcomer; survivors never trade keys.
      EXPECT_EQ(after.PrimaryFor(key), 4) << key;
    }
  }
  const double key_fraction = static_cast<double>(moved) / kKeys;
  EXPECT_NEAR(key_fraction, diff.MovedFraction(), 0.02)
      << "sampled keys disagree with the diff's token-space fraction";
}

TEST(PartitionerDiff, RemovalMovesExactlyTheDepartedNodesShare) {
  const Partitioner before({0, 1, 2, 3, 4}, 1, /*vnodes_per_node=*/64);
  const Partitioner after = before.WithNodes({0, 1, 2, 3});
  const auto diff = Partitioner::Diff(before, after);
  for (const auto& range : diff.moved) {
    EXPECT_EQ(range.from, 4) << "a survivor lost a range it should have kept";
    EXPECT_NE(range.to, 4);
  }
  EXPECT_GT(diff.MovedFraction(), 0.10);
  EXPECT_LT(diff.MovedFraction(), 0.35);
}

TEST(PartitionerDiff, IdenticalRingsProduceAnEmptyDiff) {
  const Partitioner ring({0, 1, 2}, 1, 32);
  const auto diff = Partitioner::Diff(ring, ring.WithNodes({0, 1, 2}));
  EXPECT_TRUE(diff.moved.empty());
  EXPECT_EQ(diff.MovedFraction(), 0.0);
  EXPECT_FALSE(diff.MovedKey("anything"));
}

TEST(PartitionerDiff, MovedRangesAreDisjointAndClassifyTokensExactly) {
  const Partitioner before({0, 1, 2}, 1, 16);
  const Partitioner after = before.WithNodes({0, 1, 2, 3});
  const auto diff = Partitioner::Diff(before, after);
  ASSERT_FALSE(diff.moved.empty());
  // Range boundary tokens behave per the (begin, end] contract: begin is outside (it
  // belongs to the preceding unmoved segment unless ranges abut), end is inside.
  for (const auto& range : diff.moved) {
    EXPECT_TRUE(range.Contains(range.end));
    EXPECT_TRUE(diff.MovedToken(range.end));
  }
  // No token is claimed by two ranges.
  for (size_t i = 0; i < diff.moved.size(); ++i) {
    int claims = 0;
    for (const auto& range : diff.moved) {
      if (range.Contains(diff.moved[i].end)) {
        claims++;
      }
    }
    EXPECT_EQ(claims, 1);
  }
}

TEST(Partitioner, LoadEstimateIsSeedableAndDeterministic) {
  const Partitioner p({0, 1, 2, 3}, 1, 64);
  const auto a = p.PrimaryLoadEstimate(5000, /*seed=*/42);
  const auto b = p.PrimaryLoadEstimate(5000, /*seed=*/42);
  EXPECT_EQ(a, b) << "same seed must reproduce the same sample";
  // A different seed probes a different key universe; estimates agree only roughly.
  const auto c = p.PrimaryLoadEstimate(5000, /*seed=*/43);
  EXPECT_NE(a, c) << "distinct seeds should draw distinct samples";
  for (const auto& [node, share] : c) {
    EXPECT_NEAR(share, a.at(node), 0.05);
  }
}

}  // namespace
}  // namespace icg

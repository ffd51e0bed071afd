// Cassandra binding: level -> quorum mapping, the single-request ICG path, confirmation
// passthrough, and level-subset optimizations (a weak-only invoke must not pay the
// multi-response protocol cost).
#include "src/bindings/cassandra_binding.h"

#include <gtest/gtest.h>

#include "src/harness/deployment.h"

namespace icg {
namespace {

class CassandraBindingTest : public ::testing::Test {
 protected:
  CassandraBindingTest() : world_(1, 0.0) {
    CassandraBindingConfig config;
    config.strong_read_quorum = 2;
    stack_ = MakeCassandraStack(world_, KvConfig{}, config);
    stack_->cluster->Preload("k", "v");
  }

  SimWorld world_;
  std::optional<CassandraStack> stack_;
};

TEST_F(CassandraBindingTest, AdvertisesWeakAndStrong) {
  EXPECT_EQ(stack_->binding->SupportedLevels(),
            (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}));
  EXPECT_EQ(stack_->binding->Name(), "cassandra");
}

TEST_F(CassandraBindingTest, WeakOnlyGetSingleResponse) {
  int callbacks = 0;
  stack_->binding->SubmitOperation(Operation::Get("k"), {ConsistencyLevel::kWeak},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel level,
                                       ResponseKind kind) {
                                     callbacks++;
                                     EXPECT_EQ(level, ConsistencyLevel::kWeak);
                                     EXPECT_EQ(kind, ResponseKind::kValue);
                                     EXPECT_EQ(r->value, "v");
                                   });
  world_.loop().Run();
  EXPECT_EQ(callbacks, 1);
  // Weak-only = R1 local read: no peer quorum traffic beyond the client link.
  EXPECT_EQ(stack_->cluster->ReplicaIn(Region::kFrankfurt)->counters().icg_reads, 0);
}

TEST_F(CassandraBindingTest, StrongOnlyGetSingleResponse) {
  int callbacks = 0;
  stack_->binding->SubmitOperation(Operation::Get("k"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult>, ConsistencyLevel level,
                                       ResponseKind) {
                                     callbacks++;
                                     EXPECT_EQ(level, ConsistencyLevel::kStrong);
                                   });
  world_.loop().Run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(
      stack_->cluster->ReplicaIn(Region::kFrankfurt)->counters().preliminaries_sent, 0);
}

TEST_F(CassandraBindingTest, BothLevelsUseIcgPath) {
  std::vector<ConsistencyLevel> seen;
  stack_->binding->SubmitOperation(
      Operation::Get("k"), {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong},
      [&](StatusOr<OpResult>, ConsistencyLevel level, ResponseKind) { seen.push_back(level); });
  world_.loop().Run();
  EXPECT_EQ(seen, (std::vector<ConsistencyLevel>{ConsistencyLevel::kWeak,
                                                 ConsistencyLevel::kStrong}));
  EXPECT_EQ(stack_->cluster->ReplicaIn(Region::kFrankfurt)->counters().icg_reads, 1);
}

TEST_F(CassandraBindingTest, ConfirmationsOnlyWhenConfigured) {
  // Default config: confirmations off -> final arrives as a full value even if matching.
  ResponseKind final_kind = ResponseKind::kConfirmation;
  stack_->binding->SubmitOperation(
      Operation::Get("k"), {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong},
      [&](StatusOr<OpResult>, ConsistencyLevel level, ResponseKind kind) {
        if (level == ConsistencyLevel::kStrong) {
          final_kind = kind;
        }
      });
  world_.loop().Run();
  EXPECT_EQ(final_kind, ResponseKind::kValue);
}

TEST_F(CassandraBindingTest, PutReportsAtStrongestRequestedLevel) {
  ConsistencyLevel seen = ConsistencyLevel::kCache;
  stack_->binding->SubmitOperation(Operation::Put("k", "v2"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel level,
                                       ResponseKind) {
                                     ASSERT_TRUE(r.ok());
                                     seen = level;
                                   });
  world_.loop().Run();
  EXPECT_EQ(seen, ConsistencyLevel::kStrong);
}

TEST_F(CassandraBindingTest, QueueOpsRejected) {
  Status status;
  stack_->binding->SubmitOperation(Operation::Dequeue("q"), {ConsistencyLevel::kStrong},
                                   [&](StatusOr<OpResult> r, ConsistencyLevel, ResponseKind) {
                                     status = r.status();
                                   });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CassandraBindingQuorum, Cc3UsesThreeReplicas) {
  SimWorld world(1, 0.0);
  CassandraBindingConfig config;
  config.strong_read_quorum = 3;
  auto stack = MakeCassandraStack(world, KvConfig{}, config);
  stack.cluster->Preload("k", "v");

  SimTime final_at = 0;
  auto c = stack.client->InvokeStrong(Operation::Get("k"));
  c.OnFinal([&](const View<OpResult>& v) { final_at = v.delivered_at; });
  world.loop().Run();
  // R=3 must wait for the VRG replica: ~20 (client RTT) + ~90 (FRK-VRG RTT) ms.
  EXPECT_GT(final_at, Millis(100));
}

TEST(CassandraBindingConfirm, ConfirmationsShrinkClientTraffic) {
  for (const bool confirmations : {false, true}) {
    SimWorld world(1, 0.0);
    CassandraBindingConfig config;
    config.strong_read_quorum = 2;
    config.confirmations = confirmations;
    auto stack = MakeCassandraStack(world, KvConfig{}, config);
    stack.cluster->Preload("k", std::string(1000, 'v'));
    auto c = stack.client->Invoke(Operation::Get("k"));
    world.loop().Run();
    ASSERT_EQ(c.state(), CorrectableState::kFinal);
    EXPECT_EQ(c.Final().value().value, std::string(1000, 'v'));
    const int64_t bytes = stack.kv_client->LinkBytes();
    if (confirmations) {
      EXPECT_LT(bytes, 1300);  // request + one full value + small confirmation
    } else {
      EXPECT_GT(bytes, 2000);  // request + two full values
    }
  }
}

}  // namespace
}  // namespace icg

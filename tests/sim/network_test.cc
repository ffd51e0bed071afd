#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/histogram.h"
#include "src/sim/topology.h"

namespace icg {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topology_(RttMatrix::Ec2Default()) {
    irl_ = topology_.AddNode(Region::kIreland, "irl");
    frk_ = topology_.AddNode(Region::kFrankfurt, "frk");
    vrg_ = topology_.AddNode(Region::kVirginia, "vrg");
  }

  EventLoop loop_;
  Topology topology_;
  NodeId irl_ = 0;
  NodeId frk_ = 0;
  NodeId vrg_ = 0;
};

TEST_F(NetworkTest, DelayIsHalfRttWithoutJitter) {
  Network net(&loop_, &topology_, 1, /*jitter_sigma=*/0.0);
  SimTime delivered = -1;
  net.Send(irl_, frk_, 100, [&]() { delivered = loop_.Now(); });
  loop_.Run();
  EXPECT_EQ(delivered, Millis(10));  // IRL-FRK RTT is 20 ms
}

TEST_F(NetworkTest, SelfSendUsesLocalDelay) {
  Network net(&loop_, &topology_, 1, 0.0);
  SimTime delivered = -1;
  net.Send(irl_, irl_, 10, [&]() { delivered = loop_.Now(); });
  loop_.Run();
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, Millis(1));
}

TEST_F(NetworkTest, JitterProducesSpreadAroundMedian) {
  Network net(&loop_, &topology_, 3, /*jitter_sigma=*/0.1);
  LatencyRecorder delays;
  for (int i = 0; i < 2000; ++i) {
    delays.Record(net.SampleDelay(irl_, vrg_));
  }
  const LatencySummary s = delays.Summarize();
  // Median of the lognormal is the base one-way delay: 83/2 = 41.5 ms.
  EXPECT_NEAR(static_cast<double>(s.p50_us), static_cast<double>(Millis(83)) / 2.0,
              static_cast<double>(Millis(2)));
  EXPECT_GT(s.max_us, s.min_us);  // actual spread
  EXPECT_GT(s.p99_us, s.p50_us);
}

// Pins the exact jitter stream: a fixed seeded send sequence (several links, interleaved
// senders, a self-send, sends spread over time) must keep delivering at these exact
// virtual times. Every seeded timeline in the repo hangs off this one RNG stream, so a
// change here reseeds every test and benchmark at once.
TEST_F(NetworkTest, JitterStreamIsPinnedForAFixedSeed) {
  Network net(&loop_, &topology_, 2024, /*jitter_sigma=*/0.3);
  std::vector<SimTime> delivered;
  const NodeId nodes[] = {irl_, frk_, vrg_};
  for (int i = 0; i < 12; ++i) {
    loop_.Schedule(Millis(3) * i, [&, i]() {
      const NodeId from = nodes[i % 3];
      const NodeId to = nodes[(i / 2) % 3];
      // Two back-to-back sends per link, so the FIFO clamp takes part too.
      net.Send(from, to, 10, [&]() { delivered.push_back(loop_.Now()); });
      net.Send(from, to, 10, [&]() { delivered.push_back(loop_.Now()); });
    });
  }
  loop_.Run();
  const std::vector<SimTime> golden = {50,    50,    14554, 14554, 15050, 15050,
                                       18050, 18050, 19069, 21396, 33050, 33050,
                                       34612, 34612, 36045, 38184, 56197, 71130,
                                       79730, 79730, 84958, 86397, 86397, 86397};
  EXPECT_EQ(delivered, golden);
}

TEST_F(NetworkTest, LinksStayFifoUnderHeavyJitter) {
  // Delays vary wildly, but a later message on a directed link never overtakes an
  // earlier one.
  Network net(&loop_, &topology_, 99, /*jitter_sigma=*/0.4);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    net.Send(irl_, frk_, 1, [&order, i]() { order.push_back(i); });
  }
  loop_.Run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST_F(NetworkTest, BytesAccountedPerDirection) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Send(irl_, frk_, 100, []() {});
  net.Send(irl_, frk_, 50, []() {});
  net.Send(frk_, irl_, 25, []() {});
  EXPECT_EQ(net.Sent(irl_, frk_).bytes, 150);
  EXPECT_EQ(net.Sent(irl_, frk_).messages, 2);
  EXPECT_EQ(net.Sent(frk_, irl_).bytes, 25);
  EXPECT_EQ(net.BytesBetween(irl_, frk_), 175);
  EXPECT_EQ(net.MessagesBetween(irl_, frk_), 3);
  EXPECT_EQ(net.total_bytes(), 175);
}

TEST_F(NetworkTest, UnusedLinkReportsZero) {
  Network net(&loop_, &topology_, 1, 0.0);
  EXPECT_EQ(net.Sent(irl_, vrg_).bytes, 0);
  EXPECT_EQ(net.BytesBetween(frk_, vrg_), 0);
}

TEST_F(NetworkTest, ResetStatsClears) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Send(irl_, frk_, 100, []() {});
  net.ResetStats();
  EXPECT_EQ(net.total_bytes(), 0);
  EXPECT_EQ(net.BytesBetween(irl_, frk_), 0);
}

TEST_F(NetworkTest, CrashedDestinationDropsMessages) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Crash(frk_);
  bool delivered = false;
  net.Send(irl_, frk_, 10, [&]() { delivered = true; });
  loop_.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped_messages(), 1);
}

TEST_F(NetworkTest, CrashedSourceDropsMessages) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Crash(irl_);
  bool delivered = false;
  net.Send(irl_, frk_, 10, [&]() { delivered = true; });
  loop_.Run();
  EXPECT_FALSE(delivered);
}

TEST_F(NetworkTest, RestartHealsNode) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Crash(frk_);
  EXPECT_TRUE(net.IsCrashed(frk_));
  net.Restart(frk_);
  EXPECT_FALSE(net.IsCrashed(frk_));
  bool delivered = false;
  net.Send(irl_, frk_, 10, [&]() { delivered = true; });
  loop_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, PartitionCutsBothDirections) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Partition(irl_, frk_);
  int delivered = 0;
  net.Send(irl_, frk_, 10, [&]() { delivered++; });
  net.Send(frk_, irl_, 10, [&]() { delivered++; });
  net.Send(irl_, vrg_, 10, [&]() { delivered++; });  // unaffected pair
  loop_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.dropped_messages(), 2);
}

TEST_F(NetworkTest, HealRestoresPartition) {
  Network net(&loop_, &topology_, 1, 0.0);
  net.Partition(irl_, frk_);
  net.Heal(irl_, frk_);
  bool delivered = false;
  net.Send(irl_, frk_, 10, [&]() { delivered = true; });
  loop_.Run();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, LossProbabilityDropsFraction) {
  Network net(&loop_, &topology_, 5, 0.0);
  net.SetLossProbability(0.25);
  int delivered = 0;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    net.Send(irl_, frk_, 1, [&]() { delivered++; });
  }
  loop_.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / kN, 0.75, 0.03);
}

TEST_F(NetworkTest, DroppedMessagesStillAccountBytes) {
  // The sender did transmit; accounting reflects offered bytes.
  Network net(&loop_, &topology_, 1, 0.0);
  net.Crash(frk_);
  net.Send(irl_, frk_, 77, []() {});
  EXPECT_EQ(net.Sent(irl_, frk_).bytes, 77);
}

}  // namespace
}  // namespace icg

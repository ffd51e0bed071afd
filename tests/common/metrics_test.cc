#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include "src/common/digest.h"

namespace icg {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.value(), 5);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(BandwidthMeter, TracksBothDirections) {
  BandwidthMeter m;
  m.RecordSent(100);
  m.RecordSent(50);
  m.RecordReceived(200);
  EXPECT_EQ(m.sent_bytes(), 150);
  EXPECT_EQ(m.received_bytes(), 200);
  EXPECT_EQ(m.total_bytes(), 350);
  EXPECT_EQ(m.sent_messages(), 2);
  EXPECT_EQ(m.received_messages(), 1);
}

TEST(BandwidthMeter, BytesPerOp) {
  BandwidthMeter m;
  m.RecordSent(1000);
  m.RecordReceived(1000);
  EXPECT_DOUBLE_EQ(m.BytesPerOp(4), 500.0);
  EXPECT_DOUBLE_EQ(m.KilobytesPerOp(1), 2.0);
  EXPECT_DOUBLE_EQ(m.BytesPerOp(0), 0.0);
}

TEST(BandwidthMeter, Reset) {
  BandwidthMeter m;
  m.RecordSent(10);
  m.Reset();
  EXPECT_EQ(m.total_bytes(), 0);
  EXPECT_EQ(m.sent_messages(), 0);
}

TEST(ThroughputMeter, OpsPerSecond) {
  ThroughputMeter t;
  for (int i = 0; i < 300; ++i) {
    t.RecordOp();
  }
  EXPECT_DOUBLE_EQ(t.OpsPerSecond(Seconds(30)), 10.0);
  EXPECT_DOUBLE_EQ(t.OpsPerSecond(0), 0.0);
  t.Reset();
  EXPECT_EQ(t.ops(), 0);
}

TEST(Digest, Fnv1aKnownValues) {
  // FNV-1a published test vectors.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Digest, ValueDigestSensitiveToContent) {
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abd", 1));
  EXPECT_NE(ValueDigest("abc", 1), ValueDigest("abc", 2));
  EXPECT_EQ(ValueDigest("abc", 1), ValueDigest("abc", 1));
}

TEST(Digest, ConstexprUsable) {
  constexpr Digest d = Fnv1a("compile-time");
  static_assert(d != 0);
  EXPECT_NE(d, 0u);
}

}  // namespace
}  // namespace icg

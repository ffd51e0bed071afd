#include "src/correctables/consistency.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/correctables/operation.h"

namespace icg {
namespace {

TEST(ConsistencyLevels, TotalOrderWeakestToStrongest) {
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kWeak, ConsistencyLevel::kCache));
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kCausal, ConsistencyLevel::kWeak));
  EXPECT_TRUE(IsStronger(ConsistencyLevel::kStrong, ConsistencyLevel::kCausal));
  EXPECT_FALSE(IsStronger(ConsistencyLevel::kWeak, ConsistencyLevel::kWeak));
  EXPECT_TRUE(IsStrongerOrEqual(ConsistencyLevel::kWeak, ConsistencyLevel::kWeak));
  EXPECT_FALSE(IsStrongerOrEqual(ConsistencyLevel::kCache, ConsistencyLevel::kStrong));
}

TEST(ConsistencyLevels, Names) {
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kCache), "CACHE");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kWeak), "WEAK");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kCausal), "CAUSAL");
  EXPECT_STREQ(ConsistencyLevelName(ConsistencyLevel::kStrong), "STRONG");
}

TEST(ValidLevelSelection, AcceptsAscendingSupportedSubsets) {
  const std::vector<ConsistencyLevel> supported = {ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong};
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kWeak}, supported));
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kStrong}, supported));
  EXPECT_TRUE(
      ValidLevelSelection({ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}, supported));
}

TEST(ValidLevelSelection, RejectsEmpty) {
  EXPECT_FALSE(ValidLevelSelection({}, {ConsistencyLevel::kWeak}));
}

TEST(ValidLevelSelection, RejectsDescendingOrDuplicate) {
  const std::vector<ConsistencyLevel> supported = {ConsistencyLevel::kWeak,
                                                   ConsistencyLevel::kStrong};
  EXPECT_FALSE(
      ValidLevelSelection({ConsistencyLevel::kStrong, ConsistencyLevel::kWeak}, supported));
  EXPECT_FALSE(
      ValidLevelSelection({ConsistencyLevel::kWeak, ConsistencyLevel::kWeak}, supported));
}

TEST(ValidLevelSelection, RejectsUnsupported) {
  EXPECT_FALSE(ValidLevelSelection({ConsistencyLevel::kCausal},
                                   {ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}));
}

TEST(ValidLevelSelection, ThreeLevelBinding) {
  const std::vector<ConsistencyLevel> supported = {
      ConsistencyLevel::kCache, ConsistencyLevel::kWeak, ConsistencyLevel::kStrong};
  EXPECT_TRUE(ValidLevelSelection(LevelVec(supported.begin(), supported.end()), supported));
  EXPECT_TRUE(ValidLevelSelection({ConsistencyLevel::kCache, ConsistencyLevel::kStrong},
                                  supported));
}

TEST(LevelsToString, FormatsList) {
  EXPECT_EQ(LevelsToString({ConsistencyLevel::kWeak, ConsistencyLevel::kStrong}),
            "[WEAK, STRONG]");
  EXPECT_EQ(LevelsToString({}), "[]");
}

TEST(Operation, Factories) {
  const Operation get = Operation::Get("k");
  EXPECT_EQ(get.type, OpType::kGet);
  EXPECT_EQ(get.key, "k");
  EXPECT_TRUE(get.IsRead());
  EXPECT_FALSE(get.IsQueueOp());

  const Operation put = Operation::Put("k", "v");
  EXPECT_EQ(put.type, OpType::kPut);
  EXPECT_EQ(put.value, "v");
  EXPECT_FALSE(put.IsRead());

  const Operation enq = Operation::Enqueue("q", "e");
  EXPECT_EQ(enq.type, OpType::kEnqueue);
  EXPECT_TRUE(enq.IsQueueOp());

  const Operation deq = Operation::Dequeue("q");
  EXPECT_EQ(deq.type, OpType::kDequeue);
  EXPECT_TRUE(deq.IsQueueOp());

  const Operation peek = Operation::Peek("q");
  EXPECT_EQ(peek.type, OpType::kPeek);
  EXPECT_TRUE(peek.IsRead());

  const Operation multi = Operation::MultiGet({"a", "b"});
  EXPECT_EQ(multi.type, OpType::kMultiGet);
  EXPECT_EQ(multi.keys.size(), 2u);
  EXPECT_TRUE(multi.IsRead());
}

TEST(Operation, WireBytesGrowWithPayload) {
  EXPECT_GT(Operation::Put("key", "0123456789").WireBytes(),
            Operation::Put("key", "").WireBytes());
  EXPECT_EQ(Operation::Put("key", "0123456789").WireBytes(),
            kRequestHeaderBytes + 3 + 10);
  EXPECT_GT(Operation::MultiGet({"a", "b", "c"}).WireBytes(),
            Operation::MultiGet({"a"}).WireBytes());
}

TEST(Operation, ToStringIsReadable) {
  EXPECT_EQ(Operation::Get("user1").ToString(), "GET(user1)");
  EXPECT_EQ(Operation::Put("k", "xyz").ToString(), "PUT(k, 3B)");
}

// Per-key answers covering every case a batch must keep apart: a hit, a miss, a
// found-but-empty value, and hits under distinct versions.
std::vector<std::optional<OpResult>> MixedReadAnswers() {
  auto hit = [](std::string value, Version version) {
    OpResult result;
    result.found = true;
    result.value = std::move(value);
    result.version = version;
    return std::optional<OpResult>(std::move(result));
  };
  return {std::nullopt, hit("alpha", Version{5, 1}), hit("", Version{9, 2}), std::nullopt,
          hit("delta", Version{3, 0}), hit("", Version{7, 1})};
}

TEST(Operation, UnpackReadReturnsEachKeysLoneResult) {
  const std::vector<std::optional<OpResult>> answers = MixedReadAnswers();
  auto answer = [&answers](size_t i) { return answers[i]; };
  const OpResult packed = PackRead(WireShape::kBatch, answers.size(), answer);
  const SmallVec<OpResult, 1> entries = UnpackRead(WireShape::kBatch, answers.size(), packed);
  ASSERT_EQ(entries.size(), answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    const OpResult lone =
        PackRead(WireShape::kSingle, 1, [&answers, i](size_t) { return answers[i]; });
    EXPECT_EQ(entries[i], lone) << "key " << i;
    // A lone request's result is its own one-entry unpacking.
    const SmallVec<OpResult, 1> single = UnpackRead(WireShape::kSingle, 1, lone);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], lone) << "key " << i;
  }
  EXPECT_FALSE(entries[0].found);
  EXPECT_TRUE(entries[2].found);  // found-but-empty stays distinct from a miss
  EXPECT_EQ(entries[2].value, "");
  EXPECT_EQ(entries[4].version, (Version{3, 0}));
}

TEST(Operation, UnpackWriteAckReturnsEachWritesLoneAck) {
  SmallVec<KeyWrite, 1> writes;
  writes.push_back(KeyWrite{"a", "1", Version{3, 1}});
  writes.push_back(KeyWrite{"b", "", Version{7, 2}});
  writes.push_back(KeyWrite{"a", "3", Version{9, 1}});  // same key again, later version
  const OpResult packed = PackWriteAck(WireShape::kBatch, writes);
  const SmallVec<OpResult, 1> acks = UnpackWriteAck(WireShape::kBatch, writes.size(), packed);
  ASSERT_EQ(acks.size(), writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    SmallVec<KeyWrite, 1> alone;
    alone.push_back(writes[i]);
    const OpResult lone = PackWriteAck(WireShape::kSingle, alone);
    EXPECT_EQ(acks[i], lone) << "write " << i;
    const SmallVec<OpResult, 1> single = UnpackWriteAck(WireShape::kSingle, 1, lone);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], lone) << "write " << i;
  }
  EXPECT_EQ(acks[1].version, (Version{7, 2}));
}

TEST(OpResultTest, WireBytesIncludeValue) {
  OpResult r;
  r.found = true;
  r.value = std::string(100, 'v');
  EXPECT_EQ(r.WireBytes(), kResponseHeaderBytes + 100);
}

TEST(OpResultTest, EqualityIsStructural) {
  OpResult a;
  a.found = true;
  a.value = "x";
  a.seqno = 3;
  OpResult b = a;
  EXPECT_EQ(a, b);
  b.seqno = 4;
  EXPECT_FALSE(a == b);
}

TEST(OpResultTest, ToStringVariants) {
  OpResult missing;
  EXPECT_EQ(missing.ToString(), "(not found)");
  OpResult queue_elem;
  queue_elem.found = true;
  queue_elem.value = "abc";
  queue_elem.seqno = 7;
  EXPECT_NE(queue_elem.ToString().find("seq=7"), std::string::npos);
}

}  // namespace
}  // namespace icg

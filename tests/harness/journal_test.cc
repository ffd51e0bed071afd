#include "src/harness/journal.h"

#include <gtest/gtest.h>

#include <string>

namespace icg {
namespace {

TEST(Journal, EntriesAreStampedFromTheLoopInNondecreasingTime) {
  EventLoop loop;
  Journal journal(&loop);
  loop.Schedule(Millis(5), [&]() { journal.Append(EventKind::kRing, 2, 1, +1); });
  loop.Schedule(Millis(5), [&]() { journal.Append(EventKind::kScaleOut, 2, 1, 3); });
  loop.Schedule(Millis(2), [&]() { journal.Append(EventKind::kCrash, 0, 0, 1); });
  loop.Schedule(Millis(9), [&]() { journal.Append(EventKind::kDetected, 0, 2, 3); });
  loop.Run();

  ASSERT_EQ(journal.entries().size(), 4u);
  for (size_t i = 1; i < journal.entries().size(); ++i) {
    EXPECT_LE(journal.entries()[i - 1].at, journal.entries()[i].at) << "entry " << i;
  }
  EXPECT_EQ(journal.entries().front().at, Millis(2));
  EXPECT_EQ(journal.entries().front().kind, EventKind::kCrash);
  EXPECT_EQ(journal.entries().back().at, Millis(9));
  EXPECT_EQ(journal.Count(EventKind::kCrash), 1);
  EXPECT_EQ(journal.Count(EventKind::kRejoined), 0);
}

// The fingerprint of a one-entry journal; `at` is the virtual time of the append.
std::string OneEntryFingerprint(SimTime at, EventKind kind, NodeId node, uint64_t epoch,
                                int64_t detail) {
  EventLoop loop;
  loop.RunUntil(at);
  Journal journal(&loop);
  journal.Append(kind, node, epoch, detail);
  return journal.Fingerprint();
}

TEST(Journal, FingerprintCoversEveryField) {
  const std::string base = OneEntryFingerprint(Millis(3), EventKind::kWiden, 1, 4, 2);
  EXPECT_EQ(OneEntryFingerprint(Millis(3), EventKind::kWiden, 1, 4, 2), base);
  EXPECT_NE(OneEntryFingerprint(Millis(4), EventKind::kWiden, 1, 4, 2), base);   // at
  EXPECT_NE(OneEntryFingerprint(Millis(3), EventKind::kShrink, 1, 4, 2), base);  // kind
  EXPECT_NE(OneEntryFingerprint(Millis(3), EventKind::kWiden, 2, 4, 2), base);   // node
  EXPECT_NE(OneEntryFingerprint(Millis(3), EventKind::kWiden, 1, 5, 2), base);   // epoch
  EXPECT_NE(OneEntryFingerprint(Millis(3), EventKind::kWiden, 1, 4, 3), base);   // detail

  // Appending changes it too, and an empty journal has the empty fingerprint.
  EventLoop loop;
  Journal journal(&loop);
  EXPECT_EQ(journal.Fingerprint(), "");
  journal.Append(EventKind::kCrash, 0, 0, 1);
  const std::string one = journal.Fingerprint();
  journal.Append(EventKind::kCrash, 0, 0, 1);
  EXPECT_NE(journal.Fingerprint(), one);
}

TEST(Journal, ToJsonQuotesKindNamesAndWritesNumbersBare) {
  EventLoop loop;
  Journal journal(&loop);
  EXPECT_EQ(journal.ToJson(), "[]");
  loop.RunUntil(Millis(250));
  journal.Append(EventKind::kScaleOut, 3, 2, 3);
  journal.Append(EventKind::kWiden, kInvalidNode, 2, 1);
  journal.Append(EventKind::kRing, 1, 3, -1);
  EXPECT_EQ(journal.ToJson(),
            "[{\"at\": 250000, \"kind\": \"scale-out\", \"node\": 3, \"epoch\": 2, "
            "\"detail\": 3}, "
            "{\"at\": 250000, \"kind\": \"widen\", \"node\": -1, \"epoch\": 2, "
            "\"detail\": 1}, "
            "{\"at\": 250000, \"kind\": \"ring\", \"node\": 1, \"epoch\": 3, "
            "\"detail\": -1}]");
}

TEST(Journal, KindNamesNeedNoJsonEscaping) {
  // ToJson writes kind names verbatim between quotes: none may hold a quote, a
  // backslash or a control character.
  for (const EventKind kind :
       {EventKind::kCrash, EventKind::kDetected, EventKind::kRejoined, EventKind::kRing,
        EventKind::kWiden, EventKind::kShrink, EventKind::kScaleOut, EventKind::kScaleIn}) {
    const std::string name = EventKindName(kind);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    for (const char c : name) {
      EXPECT_TRUE(c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) << name;
    }
  }
}

}  // namespace
}  // namespace icg

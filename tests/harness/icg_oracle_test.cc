#include "src/harness/icg_oracle.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "src/harness/deployment.h"

namespace icg {
namespace {

constexpr ConsistencyLevel kWeak = ConsistencyLevel::kWeak;
constexpr ConsistencyLevel kStrong = ConsistencyLevel::kStrong;

// A view at `level`; a miss unless it carries a value.
View<OpResult> MakeView(ConsistencyLevel level, const std::string* value = nullptr,
                        Version version = {}) {
  View<OpResult> view;
  view.level = level;
  view.value.found = value != nullptr;
  view.value.value = value != nullptr ? *value : "";
  view.value.version = version;
  return view;
}

size_t OpenIcgRead(ContractChecker& checker) {
  return checker.Open("k", kWeak, kStrong, nullptr, /*check_values=*/true);
}

TEST(ContractChecker, WeakThenStrongReadIsClean) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kWeak), false);
  checker.OnView(id, MakeView(kStrong), true);
  checker.Finish();
  EXPECT_EQ(checker.violations().total(), 0) << checker.Report();
  EXPECT_EQ(checker.finals(), 1);
  EXPECT_EQ(checker.Report(), "0 violations");
}

TEST(ContractChecker, FlagsALevelRegression) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kStrong), false);
  checker.OnView(id, MakeView(kWeak), false);
  checker.OnView(id, MakeView(kStrong), true);
  EXPECT_EQ(checker.violations().regressions, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsAFinalBelowTheStrongestRequestedLevel) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kWeak), true);
  EXPECT_EQ(checker.violations().final_level, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsAViewOutsideTheRequestedRange) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = checker.Open("k", kWeak, kWeak, nullptr, true);
  checker.OnView(id, MakeView(ConsistencyLevel::kCache), false);
  checker.OnView(id, MakeView(kStrong), true);  // above the strongest requested
  EXPECT_EQ(checker.violations().out_of_range, 2);
  EXPECT_EQ(checker.violations().total(), 2) << checker.Report();
}

TEST(ContractChecker, FlagsAnErrorAfterTheFinal) {
  ContractChecker checker(SanctionedError::kAny);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kStrong), true);
  checker.OnError(id, Status::Timeout("late"));
  EXPECT_EQ(checker.violations().after_terminal, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsAViewAfterAnError) {
  ContractChecker checker(SanctionedError::kAny);
  const size_t id = OpenIcgRead(checker);
  checker.OnError(id, Status::Timeout("gave up"));
  checker.OnView(id, MakeView(kWeak), false);
  EXPECT_EQ(checker.violations().after_terminal, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsASecondFinal) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kStrong), true);
  checker.OnView(id, MakeView(kStrong), true);
  EXPECT_EQ(checker.violations().duplicate_finals, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsAnUnterminatedInvocation) {
  ContractChecker checker(SanctionedError::kNone);
  const size_t id = OpenIcgRead(checker);
  checker.OnView(id, MakeView(kWeak), false);
  EXPECT_EQ(checker.violations().total(), 0);
  checker.Finish();
  EXPECT_EQ(checker.violations().unterminated, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST(ContractChecker, FlagsAThinAirReadButNotASubmittedValue) {
  ContractChecker checker(SanctionedError::kNone);
  const std::string init = "init", written = "v1", ack = "", ghost = "ghost";
  checker.Allow("k", init);
  const size_t write = checker.Open("k", kStrong, kStrong, &written, true);
  // A write ack's payload is not a stored value: it is never held to no-thin-air.
  checker.OnView(write, MakeView(kStrong, &ack), true);
  const size_t first = OpenIcgRead(checker);
  checker.OnView(first, MakeView(kWeak, &init), false);     // preloaded: legal
  checker.OnView(first, MakeView(kStrong, &written), true);  // submitted: legal
  const size_t second = OpenIcgRead(checker);
  checker.OnView(second, MakeView(kWeak, &ghost), false);  // never written
  checker.OnView(second, MakeView(kStrong, &written), true);
  EXPECT_EQ(checker.violations().thin_air, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
  // Values are per key: "v1" was written under "k" only.
  EXPECT_TRUE(checker.Allowed("k", "v1"));
  EXPECT_FALSE(checker.Allowed("other", "v1"));
}

TEST(ContractChecker, OverloadedIsAcceptedOnlyWhenSanctioned) {
  for (const SanctionedError policy :
       {SanctionedError::kNone, SanctionedError::kOverloaded, SanctionedError::kAny}) {
    ContractChecker checker(policy);
    checker.OnError(OpenIcgRead(checker), Status::Overloaded("shed"));
    checker.OnError(OpenIcgRead(checker), Status::Timeout("slow"));
    const int64_t overloaded_flagged = policy == SanctionedError::kNone ? 1 : 0;
    const int64_t timeout_flagged = policy == SanctionedError::kAny ? 0 : 1;
    EXPECT_EQ(checker.violations().unsanctioned_errors, overloaded_flagged + timeout_flagged)
        << static_cast<int>(policy);
    EXPECT_EQ(checker.errors(), 2);
  }
}

TEST(ContractChecker, FingerprintFollowsTheHistory) {
  auto run = [](ConsistencyLevel first) {
    ContractChecker checker(SanctionedError::kNone);
    const size_t id = OpenIcgRead(checker);
    checker.OnView(id, MakeView(first), false);
    checker.OnView(id, MakeView(kStrong), true);
    return checker.fingerprint();
  };
  EXPECT_EQ(run(kWeak), run(kWeak));
  EXPECT_NE(run(kWeak), run(kStrong));
}

// --- Write history against a real cluster's replica state -----------------------------

class ContractHistory : public ::testing::Test {
 protected:
  ContractHistory()
      : world_(1, 0.0), stack_(MakeCassandraStack(world_, KvConfig{}, {})) {}

  // Opens a strong write of `value` to "k" and closes it with the ack `version`.
  void AckedWrite(ContractChecker& checker, const std::string& value, Version version) {
    const size_t id = checker.Open("k", kStrong, kStrong, &value, true);
    checker.OnView(id, MakeView(kStrong, nullptr, version), true);
  }

  void StoreEverywhere(const std::string& value, Version version) {
    for (const auto& replica : stack_.cluster->replicas()) {
      replica->LocalPut("k", value, version);
    }
  }

  SimWorld world_;
  CassandraStack stack_;
};

TEST_F(ContractHistory, ConvergedLastWriteIsClean) {
  ContractChecker checker(SanctionedError::kNone);
  AckedWrite(checker, "v1", Version{10, 1});
  AckedWrite(checker, "v2", Version{20, 1});
  StoreEverywhere("v2", Version{20, 1});
  EXPECT_EQ(checker.CheckAckedWrites(*stack_.cluster), 1);
  checker.CheckProgramOrder(*stack_.cluster);
  EXPECT_EQ(checker.violations().total(), 0) << checker.Report();
}

TEST_F(ContractHistory, FlagsALostAckedWrite) {
  ContractChecker checker(SanctionedError::kNone);
  AckedWrite(checker, "v2", Version{20, 1});
  StoreEverywhere("v1", Version{10, 1});
  checker.CheckAckedWrites(*stack_.cluster);
  EXPECT_EQ(checker.violations().acked_lost, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST_F(ContractHistory, FlagsTheAckedVersionWithADifferentValue) {
  ContractChecker checker(SanctionedError::kNone);
  AckedWrite(checker, "v2", Version{20, 1});
  StoreEverywhere("impostor", Version{20, 1});
  checker.CheckAckedWrites(*stack_.cluster);
  EXPECT_EQ(checker.violations().acked_value, 1);
  EXPECT_EQ(checker.violations().total(), 1) << checker.Report();
}

TEST_F(ContractHistory, FlagsAnAckRegressionAndAStaleReplica) {
  ContractChecker checker(SanctionedError::kNone);
  AckedWrite(checker, "v1", Version{20, 1});
  AckedWrite(checker, "v2", Version{10, 1});  // acked under an older version
  StoreEverywhere("v1", Version{20, 1});      // so LWW kept the first write
  checker.CheckProgramOrder(*stack_.cluster);
  EXPECT_EQ(checker.violations().ack_regressions, 1);
  EXPECT_EQ(checker.violations().divergence, 1);  // not the last admitted write
  EXPECT_EQ(checker.violations().total(), 2) << checker.Report();
}

TEST_F(ContractHistory, FlagsReplicasThatDisagree) {
  ContractChecker checker(SanctionedError::kNone);
  AckedWrite(checker, "v1", Version{10, 1});
  stack_.cluster->replicas().front()->LocalPut("k", "v1", Version{10, 1});
  checker.CheckProgramOrder(*stack_.cluster);  // the other replicas never got it
  EXPECT_EQ(checker.violations().divergence, 1);
  EXPECT_EQ(checker.violations().acked_lost, 1);
  EXPECT_EQ(checker.violations().total(), 2) << checker.Report();
}

TEST_F(ContractHistory, AShedWriteIsNotTheLastAdmittedWrite) {
  ContractChecker checker(SanctionedError::kOverloaded);
  AckedWrite(checker, "v1", Version{10, 1});
  const std::string shed = "v2";
  checker.OnError(checker.Open("k", kStrong, kStrong, &shed, true),
                  Status::Overloaded("queue full"));
  StoreEverywhere("v1", Version{10, 1});
  checker.CheckProgramOrder(*stack_.cluster);
  EXPECT_EQ(checker.violations().total(), 0) << checker.Report();
  EXPECT_EQ(checker.LastAdmittedWrites().at("k"), "v1");
}

// --- ICG_ORACLE_SEED --------------------------------------------------------------------

TEST(OracleSeed, ParsesDecimalSeedsAndFallsBackWhenUnset) {
  EXPECT_EQ(ParseOracleSeed(nullptr, 12345), 12345u);
  EXPECT_EQ(ParseOracleSeed("", 12345), 12345u);
  EXPECT_EQ(ParseOracleSeed("7", 12345), 7u);
  EXPECT_EQ(ParseOracleSeed("20260731", 12345), 20260731u);
  EXPECT_EQ(ParseOracleSeed("18446744073709551615", 1),
            std::numeric_limits<uint64_t>::max());
}

TEST(OracleSeed, RejectsAnythingButADecimalUint64) {
  for (const char* bad : {"abc", "7x", "-1", "+7", " 7", "7 ", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW(ParseOracleSeed(bad, 12345), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace icg

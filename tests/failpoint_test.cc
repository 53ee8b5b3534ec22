// Unit tests for the named-failpoint registry (util/failpoint.h): spec
// grammar, schedule semantics (always / Nth-hit one-shot / probabilistic),
// hit/fire counters, and the zero-cost disarmed fast path.

#include <gtest/gtest.h>

#include <string>

#include "util/failpoint.h"

namespace sepriv {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::ClearAll(); }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(FailpointTest, DisarmedEvaluatesToNone) {
  EXPECT_EQ(failpoint::Evaluate("page_file.read"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::Evaluate("anything.at.all"), failpoint::Action::kNone);
}

TEST_F(FailpointTest, EveryHitRuleFiresOnEveryEvaluation) {
  ASSERT_TRUE(failpoint::SetSpec("page_file.read=err"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(failpoint::Evaluate("page_file.read"),
              failpoint::Action::kError);
  }
  EXPECT_EQ(failpoint::HitCount("page_file.read"), 3u);
  EXPECT_EQ(failpoint::FireCount("page_file.read"), 3u);
  // Other sites stay disarmed.
  EXPECT_EQ(failpoint::Evaluate("page_file.write"), failpoint::Action::kNone);
}

TEST_F(FailpointTest, ActionsParse) {
  ASSERT_TRUE(failpoint::SetSpec(
      "a=err,b=enospc,c=torn,d=crash"));
  EXPECT_EQ(failpoint::Evaluate("a"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Evaluate("b"), failpoint::Action::kEnospc);
  EXPECT_EQ(failpoint::Evaluate("c"), failpoint::Action::kTorn);
  // "d" would CrashNow() at the planted site; Evaluate only reports it.
  EXPECT_EQ(failpoint::Evaluate("d"), failpoint::Action::kCrash);
}

TEST_F(FailpointTest, NthHitFiresExactlyOnce) {
  ASSERT_TRUE(failpoint::SetSpec("site=err@3"));
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kError);
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::HitCount("site"), 4u);
  EXPECT_EQ(failpoint::FireCount("site"), 1u);
}

TEST_F(FailpointTest, NthHitPlusFiresFromThenOn) {
  ASSERT_TRUE(failpoint::SetSpec("site=err@3+"));
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kNone);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(failpoint::Evaluate("site"), failpoint::Action::kError);
  }
  EXPECT_EQ(failpoint::HitCount("site"), 7u);
  EXPECT_EQ(failpoint::FireCount("site"), 5u);
}

TEST_F(FailpointTest, ProbabilisticScheduleIsSeededAndBounded) {
  // p=0 never fires; p=1 always fires.
  ASSERT_TRUE(failpoint::SetSpec("never=err~0.0,always=err~1.0"));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(failpoint::Evaluate("never"), failpoint::Action::kNone);
    EXPECT_EQ(failpoint::Evaluate("always"), failpoint::Action::kError);
  }

  // A mid probability with a pinned seed fires a reproducible subset.
  ASSERT_TRUE(failpoint::SetSpec("p=err~0.5@42"));
  std::string first;
  for (int i = 0; i < 64; ++i) {
    first += failpoint::Evaluate("p") == failpoint::Action::kError ? '1'
                                                                   : '0';
  }
  const uint64_t fired = failpoint::FireCount("p");
  EXPECT_GT(fired, 10u);  // ~32 expected; wildly loose deterministic bounds
  EXPECT_LT(fired, 54u);

  // Re-arming with the same seed replays the same schedule bit for bit.
  ASSERT_TRUE(failpoint::SetSpec("p=err~0.5@42"));
  std::string second;
  for (int i = 0; i < 64; ++i) {
    second += failpoint::Evaluate("p") == failpoint::Action::kError ? '1'
                                                                    : '0';
  }
  EXPECT_EQ(first, second);
}

TEST_F(FailpointTest, InvalidSpecsRejectedAtomically) {
  EXPECT_FALSE(failpoint::SetSpec("missing_action"));
  EXPECT_FALSE(failpoint::SetSpec("a=unknown_action"));
  EXPECT_FALSE(failpoint::SetSpec("a=err@"));
  EXPECT_FALSE(failpoint::SetSpec("a=err@+"));
  EXPECT_FALSE(failpoint::SetSpec("a=err@0+"));
  EXPECT_FALSE(failpoint::SetSpec("a=err~1.5"));
  EXPECT_FALSE(failpoint::SetSpec("a=err~-0.5"));
  // All-or-nothing: a bad rule in a list must not arm the good ones.
  EXPECT_FALSE(failpoint::SetSpec("good=err,bad=@@"));
  EXPECT_EQ(failpoint::Evaluate("good"), failpoint::Action::kNone);
}

TEST_F(FailpointTest, ClearAllDisarmsEverything) {
  ASSERT_TRUE(failpoint::SetSpec("x=err,y=torn"));
  EXPECT_EQ(failpoint::Evaluate("x"), failpoint::Action::kError);
  failpoint::ClearAll();
  EXPECT_EQ(failpoint::Evaluate("x"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::Evaluate("y"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::HitCount("x"), 0u);
}

TEST_F(FailpointTest, EmptySpecIsValidAndDisarmed) {
  EXPECT_TRUE(failpoint::SetSpec(""));
  EXPECT_EQ(failpoint::Evaluate("x"), failpoint::Action::kNone);
}

}  // namespace
}  // namespace sepriv

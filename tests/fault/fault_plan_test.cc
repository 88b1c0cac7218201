// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// FaultPlan grammar: Parse/ToString round-trips, canonical forms, error
// reporting, and the crash-event helpers the trainer's recovery path uses.
#include "fault/fault_plan.h"

#include <string>

#include <gtest/gtest.h>

namespace lpsgd {
namespace fault {
namespace {

TEST(FaultPlanTest, ParsesEveryDirectiveKind) {
  auto plan =
      FaultPlan::Parse("straggle@3:0.5;fail@5x2;corrupt@7;crash@9:1;seed=42");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->events.size(), 4u);

  EXPECT_EQ(plan->events[0].kind, FaultKind::kStraggle);
  EXPECT_EQ(plan->events[0].iteration, 3);
  EXPECT_DOUBLE_EQ(plan->events[0].delay_seconds, 0.5);

  EXPECT_EQ(plan->events[1].kind, FaultKind::kTransientFail);
  EXPECT_EQ(plan->events[1].iteration, 5);
  EXPECT_EQ(plan->events[1].count, 2);

  EXPECT_EQ(plan->events[2].kind, FaultKind::kCorruptWire);
  EXPECT_EQ(plan->events[2].iteration, 7);
  EXPECT_EQ(plan->events[2].count, 1);

  EXPECT_EQ(plan->events[3].kind, FaultKind::kRankCrash);
  EXPECT_EQ(plan->events[3].iteration, 9);
  EXPECT_EQ(plan->events[3].rank, 1);

  EXPECT_EQ(plan->seed, 42u);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlanTest, ToStringRoundTripsExactly) {
  const std::string specs[] = {
      "straggle@3:0.5;fail@5x2;corrupt@7;crash@9:1;seed=42",
      "fail@0",
      "corrupt@12x3",
      "straggle@1:0.25;straggle@2:0.25",
      "crash@100:7",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    auto plan = FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const std::string canonical = plan->ToString();
    auto reparsed = FaultPlan::Parse(canonical);
    ASSERT_TRUE(reparsed.ok())
        << "ToString produced unparseable \"" << canonical
        << "\": " << reparsed.status();
    EXPECT_EQ(reparsed->ToString(), canonical);
    ASSERT_EQ(reparsed->events.size(), plan->events.size());
    for (size_t i = 0; i < plan->events.size(); ++i) {
      EXPECT_EQ(reparsed->events[i].kind, plan->events[i].kind);
      EXPECT_EQ(reparsed->events[i].iteration, plan->events[i].iteration);
      EXPECT_EQ(reparsed->events[i].count, plan->events[i].count);
      EXPECT_DOUBLE_EQ(reparsed->events[i].delay_seconds,
                       plan->events[i].delay_seconds);
      EXPECT_EQ(reparsed->events[i].rank, plan->events[i].rank);
    }
    EXPECT_EQ(reparsed->seed, plan->seed);
  }
}

TEST(FaultPlanTest, CanonicalFormOmitsDefaults) {
  // A count of 1 and the default seed are not spelled out.
  auto plan = FaultPlan::Parse("fail@4x1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->ToString(), "fail@4");

  auto seeded = FaultPlan::Parse("fail@4;seed=9");
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(seeded->ToString(), "fail@4;seed=9");
}

TEST(FaultPlanTest, EmptyTextIsEmptyPlan) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
  EXPECT_EQ(plan->ToString(), "");
}

TEST(FaultPlanTest, RejectsMalformedDirectives) {
  const std::string bad[] = {
      "fail",            // missing @<iter>
      "fail@",           // missing iteration
      "fail@x2",         // missing iteration
      "fail@-1",         // negative iteration
      "fail@3x0",        // zero count
      "fail@3x-2",       // negative count
      "straggle@3",      // missing :<seconds>
      "straggle@3:-1",   // negative delay
      "crash@3",         // missing :<rank>
      "crash@3:-1",      // negative rank
      // Values ToString could not print back: non-finite delays,
      // overflowing iterations, counts and ranks wider than int.
      "straggle@3:nan", "straggle@3:inf", "fail@99999999999999999999",
      "fail@3x2147483648", "corrupt@3x4294967297", "crash@3:4294967295",
      "explode@3",       // unknown kind
      "seed=",           // missing value
      "seed=banana",     // non-numeric seed
      "knob=3",          // unknown key
  };
  for (const std::string& spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_FALSE(FaultPlan::Parse(spec).ok());
  }
}

TEST(FaultPlanTest, WithoutCrashesDropsOnlyCrashEvents) {
  auto plan = FaultPlan::Parse("fail@2;crash@4:0;corrupt@6;crash@8:1;seed=5");
  ASSERT_TRUE(plan.ok());
  FaultPlan survivors = plan->WithoutCrashes();
  ASSERT_EQ(survivors.events.size(), 2u);
  EXPECT_EQ(survivors.events[0].kind, FaultKind::kTransientFail);
  EXPECT_EQ(survivors.events[0].iteration, 2);
  EXPECT_EQ(survivors.events[1].kind, FaultKind::kCorruptWire);
  EXPECT_EQ(survivors.events[1].iteration, 6);
  EXPECT_EQ(survivors.seed, 5u) << "seed must survive the crash filter";
}

// Storage verbs (ISSUE: durable checkpointing): torn@, shortwrite@,
// enospc@[xN], and kill@ parse, round-trip through ToString, and the
// helpers the checkpoint layer keys off them report correctly.
TEST(FaultPlanTest, ParsesStorageAndKillDirectives) {
  auto plan = FaultPlan::Parse("torn@4;shortwrite@6;enospc@8x3;kill@10");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->events.size(), 4u);

  EXPECT_EQ(plan->events[0].kind, FaultKind::kTornWrite);
  EXPECT_EQ(plan->events[0].iteration, 4);

  EXPECT_EQ(plan->events[1].kind, FaultKind::kShortWrite);
  EXPECT_EQ(plan->events[1].iteration, 6);

  EXPECT_EQ(plan->events[2].kind, FaultKind::kDiskFull);
  EXPECT_EQ(plan->events[2].iteration, 8);
  EXPECT_EQ(plan->events[2].count, 3);

  EXPECT_EQ(plan->events[3].kind, FaultKind::kKill);
  EXPECT_EQ(plan->events[3].iteration, 10);
}

TEST(FaultPlanTest, StorageDirectivesRoundTripExactly) {
  const std::string specs[] = {
      "torn@4",
      "shortwrite@0",
      "enospc@8",
      "enospc@8x3",
      "kill@10",
      "torn@4;shortwrite@6;enospc@8x3;kill@10;seed=9",
      "fail@2x2;torn@4;crash@6:1;kill@8",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    auto plan = FaultPlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->ToString(), spec);
  }
}

TEST(FaultPlanTest, RejectsMalformedStorageDirectivesNamingTheToken) {
  // Each rejection message must carry the offending token so a long
  // plan's error is actionable.
  const std::pair<std::string, std::string> bad[] = {
      {"torn", "torn"},                 // missing @<iter>
      {"torn@", "torn@"},               // missing iteration
      {"torn@-1", "torn@-1"},           // negative iteration
      {"torn@4x2", "torn@4x2"},         // torn takes no count
      {"shortwrite@", "shortwrite@"},   // missing iteration
      {"shortwrite@2x2", "shortwrite@2x2"},  // no count allowed
      {"enospc@3x0", "enospc@3x0"},     // zero count
      {"enospc@3x-2", "enospc@3x-2"},   // negative count
      {"kill@", "kill@"},               // missing iteration
      {"kill@1:2", "kill@1:2"},         // kill takes no argument
      {"kill@banana", "kill@banana"},   // non-numeric iteration
  };
  for (const auto& [spec, token] : bad) {
    SCOPED_TRACE(spec);
    auto plan = FaultPlan::Parse(spec);
    ASSERT_FALSE(plan.ok());
    EXPECT_NE(plan.status().message().find(token), std::string::npos)
        << "rejection \"" << plan.status().message()
        << "\" does not name the offending token";
  }
}

TEST(FaultPlanTest, UnknownVerbRejectionListsTheKnownVerbs) {
  auto plan = FaultPlan::Parse("explode@3");
  ASSERT_FALSE(plan.ok());
  const std::string message(plan.status().message());
  EXPECT_NE(message.find("explode@3"), std::string::npos);
  for (const char* verb : {"torn", "shortwrite", "enospc", "kill"}) {
    EXPECT_NE(message.find(verb), std::string::npos)
        << "error should advertise the new verb " << verb;
  }
}

TEST(FaultPlanTest, StorageAndKillHelpers) {
  auto plan = FaultPlan::Parse("torn@4;kill@10");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->HasStorageFaults());
  EXPECT_TRUE(plan->KillsAt(10));
  EXPECT_FALSE(plan->KillsAt(4));

  auto exchange_only = FaultPlan::Parse("fail@2;crash@4:0;kill@6");
  ASSERT_TRUE(exchange_only.ok());
  EXPECT_FALSE(exchange_only->HasStorageFaults())
      << "kill is a process fault, not a storage fault";

  auto storage_only = FaultPlan::Parse("enospc@2x2;shortwrite@4");
  ASSERT_TRUE(storage_only.ok());
  EXPECT_TRUE(storage_only->HasStorageFaults());
  EXPECT_FALSE(storage_only->KillsAt(2));
}

TEST(FaultPlanTest, ProcessKillErrorRoundTrips) {
  const Status killed = ProcessKillError(7);
  EXPECT_FALSE(killed.ok());
  EXPECT_TRUE(IsProcessKill(killed));
  // Disjoint from the rank-crash channel even though both are ABORTED.
  int rank = -1;
  EXPECT_FALSE(IsRankCrash(killed, &rank));
  EXPECT_FALSE(IsProcessKill(RankCrashError(7)));
  EXPECT_FALSE(IsProcessKill(OkStatus()));
  EXPECT_FALSE(IsProcessKill(AbortedError("unrelated")));
}

TEST(FaultPlanTest, RankCrashErrorRoundTrips) {
  const Status crash = RankCrashError(3);
  EXPECT_FALSE(crash.ok());
  int rank = -1;
  EXPECT_TRUE(IsRankCrash(crash, &rank));
  EXPECT_EQ(rank, 3);

  int untouched = -1;
  EXPECT_FALSE(IsRankCrash(OkStatus(), &untouched));
  EXPECT_FALSE(IsRankCrash(InternalError("unrelated"), &untouched));
  EXPECT_EQ(untouched, -1);
}

}  // namespace
}  // namespace fault
}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// CheckpointManager: the temp+fsync+rename publish protocol, manifest
// maintenance, retention GC, restore-with-fallback across torn/short
// writes, and the retry/backoff loop against injected ENOSPC.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/fault_storage.h"
#include "ckpt/manager.h"
#include "ckpt/storage.h"
#include "fault/fault_plan.h"

namespace lpsgd {
namespace ckpt {
namespace {

TrainerState MakeState(int64_t iteration) {
  TrainerState state;
  state.seed = 7;
  state.codec = "fp32";
  state.rank_count = 4;
  state.iteration = iteration;
  state.epochs_completed = static_cast<int32_t>(iteration / 4);
  state.params.push_back(
      {"w", {2, 2}, {static_cast<float>(iteration), 1.0f, 2.0f, 3.0f}});
  state.rng_streams = {{"init", 7}};
  return state;
}

DurableCheckpointOptions MakeOptions(const char* name,
                                     std::shared_ptr<Storage> storage = nullptr) {
  DurableCheckpointOptions options;
  options.save_dir = JoinPath(::testing::TempDir(), name);
  options.storage = std::move(storage);
  return options;
}

TEST(DurableCheckpointOptionsTest, ValidateRejectsBadBudgets) {
  DurableCheckpointOptions options;
  options.save_dir = "d";
  options.save_every = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.save_every = 0;
  options.keep = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.keep = 1;
  options.max_retries = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.max_retries = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(CheckpointManagerTest, CreateNeedsASaveDir) {
  DurableCheckpointOptions options;
  auto manager = CheckpointManager::Create(options);
  EXPECT_EQ(manager.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointManagerTest, SaveThenRestoreRoundTrips) {
  auto manager = CheckpointManager::Create(MakeOptions("mgr_roundtrip"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(4)).ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 4);
  EXPECT_EQ(restored->fallbacks, 0);
  EXPECT_EQ(restored->path, (*manager)->CheckpointPath(4));
  ASSERT_EQ(restored->state.params.size(), 1u);
  EXPECT_EQ(restored->state.params[0].data[0], 4.0f);
}

TEST(CheckpointManagerTest, RestoreWithNoCheckpointsIsNotFound) {
  auto manager = CheckpointManager::Create(MakeOptions("mgr_empty"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  auto restored = (*manager)->RestoreLatest();
  EXPECT_EQ(restored.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, RetentionKeepsOnlyTheNewest) {
  DurableCheckpointOptions options = MakeOptions("mgr_retention");
  options.keep = 2;
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  for (int64_t i : {2, 4, 6, 8}) {
    ASSERT_TRUE((*manager)->Save(MakeState(i)).ok());
  }
  auto storage = (*manager)->storage();
  EXPECT_TRUE(storage->Exists((*manager)->CheckpointPath(8)));
  EXPECT_TRUE(storage->Exists((*manager)->CheckpointPath(6)));
  EXPECT_FALSE(storage->Exists((*manager)->CheckpointPath(4)));
  EXPECT_FALSE(storage->Exists((*manager)->CheckpointPath(2)));
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 8);
}

TEST(CheckpointManagerTest, NoTempFilesSurviveAPublish) {
  auto manager = CheckpointManager::Create(MakeOptions("mgr_no_temps"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(1)).ok());
  auto names = (*manager)->storage()->List((*manager)->options().save_dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : names.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

TEST(CheckpointManagerTest, TornLatestFallsBackToPrevious) {
  auto plan = fault::FaultPlan::Parse("torn@8");
  ASSERT_TRUE(plan.ok());
  DurableCheckpointOptions options = MakeOptions(
      "mgr_torn_fallback",
      std::make_shared<FaultInjectingStorage>(MakePosixStorage(), *plan));
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(4)).ok());
  ASSERT_TRUE((*manager)->Save(MakeState(8)).ok());  // silently torn
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 4)
      << "a torn newest checkpoint must never load";
  EXPECT_EQ(restored->fallbacks, 1);
}

TEST(CheckpointManagerTest, ShortWriteLatestFallsBackToPrevious) {
  auto plan = fault::FaultPlan::Parse("shortwrite@8");
  ASSERT_TRUE(plan.ok());
  DurableCheckpointOptions options = MakeOptions(
      "mgr_short_fallback",
      std::make_shared<FaultInjectingStorage>(MakePosixStorage(), *plan));
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(4)).ok());
  ASSERT_TRUE((*manager)->Save(MakeState(8)).ok());  // half the bytes land
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 4);
  EXPECT_EQ(restored->fallbacks, 1);
}

TEST(CheckpointManagerTest, EnospcIsRetriedWithinBudget) {
  auto plan = fault::FaultPlan::Parse("enospc@8x2");
  ASSERT_TRUE(plan.ok());
  auto faulty =
      std::make_shared<FaultInjectingStorage>(MakePosixStorage(), *plan);
  DurableCheckpointOptions options = MakeOptions("mgr_enospc_ok", faulty);
  options.max_retries = 3;
  options.backoff_base_seconds = 0.0;
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(8)).ok());
  EXPECT_EQ(faulty->injected(), 2);
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 8);
}

TEST(CheckpointManagerTest, EnospcBeyondBudgetFailsTheSave) {
  auto plan = fault::FaultPlan::Parse("enospc@8x5");
  ASSERT_TRUE(plan.ok());
  DurableCheckpointOptions options = MakeOptions(
      "mgr_enospc_fail",
      std::make_shared<FaultInjectingStorage>(MakePosixStorage(), *plan));
  options.max_retries = 2;  // 3 attempts < 5 injected failures
  options.backoff_base_seconds = 0.0;
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  const Status saved = (*manager)->Save(MakeState(8));
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable);
}

TEST(CheckpointManagerTest, CorruptManifestFallsBackToDirectoryScan) {
  auto manager = CheckpointManager::Create(MakeOptions("mgr_bad_manifest"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(4)).ok());
  ASSERT_TRUE((*manager)->Save(MakeState(8)).ok());
  // Vandalize the manifest; the directory scan still finds both files.
  auto storage = (*manager)->storage();
  const std::string manifest =
      JoinPath((*manager)->options().save_dir, "MANIFEST");
  ASSERT_TRUE(storage->WriteFileSynced(manifest, "not a manifest").ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->state.iteration, 8);
}

TEST(CheckpointManagerTest, AllCheckpointsCorruptIsDataLoss) {
  auto plan = fault::FaultPlan::Parse("torn@4;torn@8");
  ASSERT_TRUE(plan.ok());
  DurableCheckpointOptions options = MakeOptions(
      "mgr_all_torn",
      std::make_shared<FaultInjectingStorage>(MakePosixStorage(), *plan));
  auto manager = CheckpointManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status();
  ASSERT_TRUE((*manager)->Save(MakeState(4)).ok());
  ASSERT_TRUE((*manager)->Save(MakeState(8)).ok());
  auto restored = (*manager)->RestoreLatest();
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointManagerTest, SavedFilesAreBitEqualAcrossManagers) {
  // Two managers given the same state produce byte-identical files: the
  // chaos CI job compares final checkpoints across independent processes.
  auto a = CheckpointManager::Create(MakeOptions("mgr_bits_a"));
  auto b = CheckpointManager::Create(MakeOptions("mgr_bits_b"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Save(MakeState(4)).ok());
  ASSERT_TRUE((*b)->Save(MakeState(4)).ok());
  auto bytes_a = (*a)->storage()->ReadFile((*a)->CheckpointPath(4));
  auto bytes_b = (*b)->storage()->ReadFile((*b)->CheckpointPath(4));
  ASSERT_TRUE(bytes_a.ok() && bytes_b.ok());
  EXPECT_EQ(bytes_a.value(), bytes_b.value());
}

}  // namespace
}  // namespace ckpt
}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ckpt/format.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace lpsgd {
namespace {

SyncTrainer::NetworkFactory Factory() {
  return [](uint64_t seed) { return BuildMlp({16, 12, 4}, seed); };
}

SyntheticImageDataset Data(int64_t n, uint64_t offset = 0) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  options.sample_offset = offset;
  return SyntheticImageDataset(options);
}

TrainerOptions Options(CodecSpec codec) {
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = codec;
  options.seed = 3;
  return options;
}

// Captures `trainer`'s state and round-trips it through the LPCK bytes,
// the path a durable checkpoint takes to disk and back.
ckpt::TrainerState SaveAndLoad(const SyncTrainer& trainer) {
  auto state = ckpt::Deserialize(ckpt::Serialize(trainer.CaptureState()));
  EXPECT_TRUE(state.ok()) << state.status();
  return state.ok() ? *std::move(state) : ckpt::TrainerState{};
}

TEST(TrainerCheckpointTest, RestoreReproducesEvaluation) {
  const auto train = Data(128);
  const auto test = Data(64, 1 << 20);

  auto source = SyncTrainer::Create(Factory(), Options(QsgdSpec(4)));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->Train(train, test, 3).ok());
  const EvalResult source_eval = (*source)->Evaluate(test);

  auto restored = SyncTrainer::Restore(Factory(), Options(QsgdSpec(4)),
                                       SaveAndLoad(**source));
  ASSERT_TRUE(restored.ok()) << restored.status();
  const EvalResult restored_eval = (*restored)->Evaluate(test);
  EXPECT_EQ(restored_eval.correct, source_eval.correct);
  EXPECT_DOUBLE_EQ(restored_eval.loss_sum, source_eval.loss_sum);
}

TEST(TrainerCheckpointTest, AllReplicasRestored) {
  const auto train = Data(128);
  const auto test = Data(64, 1 << 20);
  const CodecSpec codec = OneBitSgdReshapedSpec(16);
  auto source = SyncTrainer::Create(Factory(), Options(codec));
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->Train(train, test, 2).ok());

  auto restored =
      SyncTrainer::Restore(Factory(), Options(codec), SaveAndLoad(**source));
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto expected = (*source)->replica(0).Params();
  for (int r = 0; r < 4; ++r) {
    auto params = (*restored)->replica(r).Params();
    ASSERT_EQ(params.size(), expected.size());
    for (size_t m = 0; m < params.size(); ++m) {
      for (int64_t i = 0; i < params[m].value->size(); ++i) {
        ASSERT_EQ(params[m].value->at(i), expected[m].value->at(i))
            << "replica " << r << " " << params[m].name << "[" << i << "]";
      }
    }
  }
}

TEST(TrainerCheckpointTest, TrainingContinuesAfterRestore) {
  const auto train = Data(256);
  const auto test = Data(128, 1 << 20);
  auto trainer = SyncTrainer::Create(Factory(), Options(QsgdSpec(8)));
  ASSERT_TRUE(trainer.ok());
  auto first = (*trainer)->Train(train, test, 4);
  ASSERT_TRUE(first.ok());

  auto resumed = SyncTrainer::Restore(Factory(), Options(QsgdSpec(8)),
                                      SaveAndLoad(**trainer));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto more = (*resumed)->Train(train, test, 3);
  ASSERT_TRUE(more.ok());
  // Restored training should keep (or improve on) the checkpointed loss,
  // not restart from scratch.
  EXPECT_LT(more->back().train_loss, first->front().train_loss);
}

TEST(TrainerCheckpointTest, RejectsMismatchedArchitecture) {
  auto source = SyncTrainer::Create(Factory(), Options(FullPrecisionSpec()));
  ASSERT_TRUE(source.ok());

  auto other = SyncTrainer::Restore(
      [](uint64_t seed) { return BuildMlp({16, 8, 4}, seed); },
      Options(FullPrecisionSpec()), SaveAndLoad(**source));
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

// A checkpoint truncated anywhere — header, tensor payload, or the final
// bytes — is DATA_LOSS, never a half-restored model. (A sink that fails
// mid-save is covered by CheckpointManagerTest.EnospcBeyondBudgetFailsTheSave.)
TEST(TrainerCheckpointTest, TruncatedCheckpointIsRejected) {
  auto source = SyncTrainer::Create(Factory(), Options(FullPrecisionSpec()));
  ASSERT_TRUE(source.ok());
  const std::string bytes = ckpt::Serialize((*source)->CaptureState());
  ASSERT_FALSE(bytes.empty());

  // A spread of strict prefixes, including the pathological 0- and 1-byte
  // files and a cut one byte short of complete.
  const size_t cuts[] = {0, 1, 4, bytes.size() / 2, bytes.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE(cut);
    const auto loaded = ckpt::Deserialize(bytes.substr(0, cut));
    ASSERT_FALSE(loaded.ok())
        << "a truncated checkpoint (cut at " << cut << ") must not load";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  }
}

// Trainer epochs are resumable even without checkpoints: Train() twice is
// equivalent to one longer Train() (epoch counters and shuffles line up).
TEST(TrainerResumabilityTest, SplitTrainingMatchesContinuous) {
  const auto train = Data(128);
  const auto test = Data(64, 1 << 20);
  auto split = SyncTrainer::Create(Factory(), Options(QsgdSpec(4)));
  auto continuous = SyncTrainer::Create(Factory(), Options(QsgdSpec(4)));
  ASSERT_TRUE(split.ok());
  ASSERT_TRUE(continuous.ok());

  auto part1 = (*split)->Train(train, test, 2);
  auto part2 = (*split)->Train(train, test, 2);
  auto full = (*continuous)->Train(train, test, 4);
  ASSERT_TRUE(part1.ok());
  ASSERT_TRUE(part2.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ((*part2)[1].train_loss, (*full)[3].train_loss);
  EXPECT_DOUBLE_EQ((*part2)[1].test_accuracy, (*full)[3].test_accuracy);
}

}  // namespace
}  // namespace lpsgd

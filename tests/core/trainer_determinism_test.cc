// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The execution-model invariant (DESIGN.md, "Execution model"): the host
// thread count is a pure scheduling knob. A serial run and an 8-thread run
// must produce byte-identical checkpoints and identical epoch metrics —
// every floating-point reduction order is fixed by the call sites, and all
// randomness flows from counter-based tags.
#include <bit>
#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "ckpt/format.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"

namespace lpsgd {
namespace {

SyntheticImageDataset MakeImages(int64_t n, int64_t offset = 0) {
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

struct RunResult {
  std::vector<EpochMetrics> metrics;
  std::string checkpoint;
};

RunResult RunTraining(const SyncTrainer::NetworkFactory& factory,
                      TrainerOptions options, const Dataset& train,
                      const Dataset& test, int epochs) {
  auto trainer = SyncTrainer::Create(factory, options);
  EXPECT_TRUE(trainer.ok()) << trainer.status();
  auto metrics = (*trainer)->Train(train, test, epochs);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  // The full trainer state: params, momentum, per-rank and owner
  // residuals, counters and the virtual clock.
  return RunResult{*std::move(metrics),
                   ckpt::Serialize((*trainer)->CaptureState())};
}

// The bits of `value`: EXPECT_DOUBLE_EQ would allow 4 ULPs.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Every field except wall_seconds (host time can never match) must be
// exactly equal; the evaluation metrics bit for bit.
void ExpectIdenticalMetrics(const std::vector<EpochMetrics>& serial,
                            const std::vector<EpochMetrics>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t e = 0; e < serial.size(); ++e) {
    SCOPED_TRACE(e);
    EXPECT_EQ(serial[e].epoch, parallel[e].epoch);
    EXPECT_DOUBLE_EQ(serial[e].train_loss, parallel[e].train_loss);
    EXPECT_DOUBLE_EQ(serial[e].train_accuracy, parallel[e].train_accuracy);
    EXPECT_EQ(Bits(serial[e].test_loss), Bits(parallel[e].test_loss));
    EXPECT_EQ(Bits(serial[e].test_accuracy),
              Bits(parallel[e].test_accuracy));
    EXPECT_EQ(Bits(serial[e].test_top5_accuracy),
              Bits(parallel[e].test_top5_accuracy));
    EXPECT_DOUBLE_EQ(serial[e].virtual_seconds, parallel[e].virtual_seconds);
    EXPECT_DOUBLE_EQ(serial[e].comm.comm_seconds,
                     parallel[e].comm.comm_seconds);
    EXPECT_DOUBLE_EQ(serial[e].comm.encode_seconds,
                     parallel[e].comm.encode_seconds);
    EXPECT_EQ(serial[e].comm.wire_bytes, parallel[e].comm.wire_bytes);
    EXPECT_EQ(serial[e].comm.raw_bytes, parallel[e].comm.raw_bytes);
    EXPECT_EQ(serial[e].comm.messages, parallel[e].comm.messages);
  }
}

class ThreadCountDeterminismTest
    : public ::testing::TestWithParam<CodecSpec> {};

TEST_P(ThreadCountDeterminismTest, SerialMatchesEightThreads) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);
  const auto factory = [](uint64_t seed) {
    return BuildMlp({16, 12, 4}, seed);
  };

  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = GetParam();
  options.seed = 7;

  options.execution = ExecutionContext::Serial();
  const RunResult serial = RunTraining(factory, options, train, test, 2);
  options.execution = ExecutionContext::WithThreads(8);
  const RunResult parallel = RunTraining(factory, options, train, test, 2);

  ExpectIdenticalMetrics(serial.metrics, parallel.metrics);
  ASSERT_FALSE(serial.checkpoint.empty());
  EXPECT_EQ(serial.checkpoint, parallel.checkpoint)
      << "checkpoints diverge between thread counts";
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ThreadCountDeterminismTest,
    ::testing::Values(FullPrecisionSpec(), QsgdSpec(4),
                      OneBitSgdReshapedSpec(16), TopKSpec(0.25)),
    [](const ::testing::TestParamInfo<CodecSpec>& info) {
      std::string out;
      for (char c : info.param.Label()) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

TEST(ThreadCountDeterminismTest, NcclRingSerialMatchesEightThreads) {
  const auto train = MakeImages(128);
  const auto test = MakeImages(64, 1 << 20);
  const auto factory = [](uint64_t seed) {
    return BuildMlp({16, 12, 4}, seed);
  };

  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.codec = QsgdSpec(4);
  options.primitive = CommPrimitive::kNccl;
  options.seed = 11;

  options.execution = ExecutionContext::Serial();
  const RunResult serial = RunTraining(factory, options, train, test, 2);
  options.execution = ExecutionContext::WithThreads(8);
  const RunResult parallel = RunTraining(factory, options, train, test, 2);

  ExpectIdenticalMetrics(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.checkpoint, parallel.checkpoint);
}

// Convolutional path (im2col, batchnorm, dropout state) under parallel
// ranks: the heaviest per-rank compute must stay deterministic too.
TEST(ThreadCountDeterminismTest, ConvNetSerialMatchesFourThreads) {
  SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.channels = 1;
  image_options.height = 8;
  image_options.width = 8;
  image_options.num_samples = 64;
  image_options.signal = 1.2f;
  image_options.noise = 0.8f;
  const SyntheticImageDataset train(image_options);
  image_options.num_samples = 32;
  image_options.sample_offset = 1 << 20;
  const SyntheticImageDataset test(image_options);

  const auto factory = [](uint64_t seed) {
    return BuildMiniAlexNet(1, 8, 10, seed);
  };
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 16;
  options.codec = OneBitSgdReshapedSpec(16);
  options.seed = 3;

  options.execution = ExecutionContext::Serial();
  const RunResult serial = RunTraining(factory, options, train, test, 1);
  options.execution = ExecutionContext::WithThreads(4);
  const RunResult parallel = RunTraining(factory, options, train, test, 1);

  ExpectIdenticalMetrics(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.checkpoint, parallel.checkpoint);
}

// BatchNorm and residual blocks: Evaluate's eval passes run on every pool
// thread, each over its own slice of the eval batch.
TEST(ThreadCountDeterminismTest, MiniResNetSerialMatchesFourThreads) {
  SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.channels = 1;
  image_options.height = 8;
  image_options.width = 8;
  image_options.num_samples = 64;
  image_options.signal = 1.2f;
  image_options.noise = 0.8f;
  const SyntheticImageDataset train(image_options);
  image_options.num_samples = 45;
  image_options.sample_offset = 1 << 20;
  const SyntheticImageDataset test(image_options);

  const auto factory = [](uint64_t seed) {
    return BuildMiniResNet(1, 8, /*num_blocks=*/1, /*width=*/4, 10, seed);
  };
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 16;
  options.eval_batch_size = 16;  // batches of 16, 16 and 13
  options.codec = QsgdSpec(4);
  options.seed = 5;

  options.execution = ExecutionContext::Serial();
  const RunResult serial = RunTraining(factory, options, train, test, 2);
  options.execution = ExecutionContext::WithThreads(4);
  const RunResult parallel = RunTraining(factory, options, train, test, 2);

  ExpectIdenticalMetrics(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.checkpoint, parallel.checkpoint);
}

// Stacked LSTMs: the eval stacks are per thread.
TEST(ThreadCountDeterminismTest, DeepLstmSerialMatchesFourThreads) {
  SyntheticSequenceOptions sequence_options;
  sequence_options.num_classes = 8;
  sequence_options.time_steps = 5;
  sequence_options.frame_dim = 6;
  sequence_options.num_samples = 64;
  const SyntheticSequenceDataset train(sequence_options);
  sequence_options.num_samples = 45;
  sequence_options.sample_offset = 1 << 20;
  const SyntheticSequenceDataset test(sequence_options);

  const auto factory = [](uint64_t seed) {
    return BuildDeepLstmClassifier(6, 8, /*num_lstm_layers=*/2, 8, seed);
  };
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 16;
  options.eval_batch_size = 16;
  options.codec = TopKSpec(0.25);
  options.primitive = CommPrimitive::kNccl;
  options.seed = 9;

  options.execution = ExecutionContext::Serial();
  const RunResult serial = RunTraining(factory, options, train, test, 2);
  options.execution = ExecutionContext::WithThreads(4);
  const RunResult parallel = RunTraining(factory, options, train, test, 2);

  ExpectIdenticalMetrics(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.checkpoint, parallel.checkpoint);
}

}  // namespace
}  // namespace lpsgd

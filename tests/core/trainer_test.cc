// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "core/trainer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"

namespace lpsgd {
namespace {

SyncTrainer::NetworkFactory MlpFactory(std::vector<int64_t> dims) {
  return [dims](uint64_t seed) { return BuildMlp(dims, seed); };
}

SyntheticImageDataset TrainSet(int64_t n = 256) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  return SyntheticImageDataset(options);
}

SyntheticImageDataset TestSet(int64_t n = 128) {
  SyntheticImageOptions options;
  options.num_classes = 4;
  options.channels = 1;
  options.height = 4;
  options.width = 4;
  options.num_samples = n;
  options.signal = 2.0f;
  options.noise = 0.5f;
  options.sample_offset = 1 << 20;
  return SyntheticImageDataset(options);
}

TrainerOptions BaseOptions(int gpus, CodecSpec codec) {
  TrainerOptions options;
  options.num_gpus = gpus;
  options.global_batch_size = 32;
  options.learning_rate = 0.05f;
  options.codec = codec;
  options.seed = 7;
  return options;
}

TEST(SyncTrainerTest, RejectsIndivisibleBatch) {
  TrainerOptions options = BaseOptions(3, FullPrecisionSpec());
  options.global_batch_size = 32;  // not divisible by 3
  auto trainer = SyncTrainer::Create(MlpFactory({16, 8, 4}), options);
  EXPECT_FALSE(trainer.ok());
  EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
}

TEST(SyncTrainerTest, RejectsZeroGpus) {
  TrainerOptions options = BaseOptions(0, FullPrecisionSpec());
  EXPECT_FALSE(SyncTrainer::Create(MlpFactory({16, 8, 4}), options).ok());
}

TEST(TrainerOptionsValidateTest, AcceptsDefaults) {
  EXPECT_TRUE(BaseOptions(4, FullPrecisionSpec()).Validate().ok());
}

TEST(TrainerOptionsValidateTest, RejectsZeroGpus) {
  TrainerOptions options = BaseOptions(0, FullPrecisionSpec());
  const Status status = options.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(TrainerOptionsValidateTest, RejectsBatchSmallerThanGpus) {
  TrainerOptions options = BaseOptions(8, FullPrecisionSpec());
  options.global_batch_size = 4;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerOptionsValidateTest, RejectsIndivisibleBatch) {
  TrainerOptions options = BaseOptions(3, FullPrecisionSpec());
  options.global_batch_size = 32;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerOptionsValidateTest, RejectsNonPositiveLearningRate) {
  TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
  options.learning_rate = 0.0f;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.learning_rate = -0.1f;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerOptionsValidateTest, RejectsUnsortedLrSchedule) {
  TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
  options.lr_schedule = {{5, 0.01f}, {3, 0.001f}};
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.lr_schedule = {{3, 0.01f}, {3, 0.001f}};  // duplicate epoch
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.lr_schedule = {{3, 0.01f}, {5, 0.001f}};
  EXPECT_TRUE(options.Validate().ok());
}

TEST(TrainerOptionsValidateTest, RejectsNonPositiveEvalBatch) {
  TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
  options.eval_batch_size = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerOptionsValidateTest, RejectsNegativeThreadRequest) {
  TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
  options.execution.intra_op_threads = -2;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  // Create surfaces the same rejection.
  EXPECT_FALSE(SyncTrainer::Create(MlpFactory({16, 8, 4}), options).ok());
}

// Central invariant of synchronous data-parallel SGD: all replicas remain
// bit-identical after every iteration, for every codec.
class ReplicaConsistencyTest
    : public ::testing::TestWithParam<CodecSpec> {};

TEST_P(ReplicaConsistencyTest, ReplicasStayIdentical) {
  TrainerOptions options = BaseOptions(4, GetParam());
  auto trainer = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  ASSERT_TRUE(trainer.ok());
  const auto train = TrainSet();
  const auto test = TestSet(32);
  ASSERT_TRUE((*trainer)->Train(train, test, 2).ok());

  auto params0 = (*trainer)->replica(0).Params();
  for (int r = 1; r < 4; ++r) {
    auto params = (*trainer)->replica(r).Params();
    ASSERT_EQ(params.size(), params0.size());
    for (size_t m = 0; m < params.size(); ++m) {
      for (int64_t i = 0; i < params[m].value->size(); ++i) {
        ASSERT_EQ(params[m].value->at(i), params0[m].value->at(i))
            << "rank " << r << " matrix " << m << " elem " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ReplicaConsistencyTest,
    ::testing::Values(FullPrecisionSpec(), QsgdSpec(4), QsgdSpec(8),
                      OneBitSgdSpec(), OneBitSgdReshapedSpec(16),
                      TopKSpec(0.25), AdaptiveQsgdSpec(4), TernGradSpec(),
                      NuqsgdSpec(4), EcqSgdSpec(4)),
    [](const ::testing::TestParamInfo<CodecSpec>& info) {
      std::string name = info.param.Label();
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

// Regression: the NCCL ring really encodes sparse codecs (allgather of
// Top-K blobs), so the trainer must size their error-feedback residuals
// under kNccl too — not only for MPI. This crashed before the fix: the
// sparse encode CHECKed on an empty residual buffer.
TEST(SyncTrainerTest, SparseCodecTrainsOverNccl) {
  TrainerOptions options = BaseOptions(4, TopKSpec(0.25));
  options.primitive = CommPrimitive::kNccl;
  auto trainer = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  ASSERT_TRUE(trainer.ok());
  const auto train = TrainSet();
  const auto test = TestSet(32);
  ASSERT_TRUE((*trainer)->Train(train, test, 2).ok());
  EXPECT_GT((*trainer)->total_comm().wire_bytes, 0);
}

// K-GPU full-precision training must match 1-GPU training with the same
// global batch (Section 2.1: synchronous SGD with K workers is equivalent
// to large-batch sequential SGD).
TEST(SyncTrainerTest, FullPrecisionParallelMatchesSequential) {
  const auto train = TrainSet();
  const auto test = TestSet(32);

  TrainerOptions seq_options = BaseOptions(1, FullPrecisionSpec());
  TrainerOptions par_options = BaseOptions(4, FullPrecisionSpec());
  auto sequential = SyncTrainer::Create(MlpFactory({16, 12, 4}), seq_options);
  auto parallel = SyncTrainer::Create(MlpFactory({16, 12, 4}), par_options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());

  auto seq_metrics = (*sequential)->Train(train, test, 3);
  auto par_metrics = (*parallel)->Train(train, test, 3);
  ASSERT_TRUE(seq_metrics.ok());
  ASSERT_TRUE(par_metrics.ok());

  for (size_t e = 0; e < seq_metrics->size(); ++e) {
    EXPECT_NEAR((*seq_metrics)[e].train_loss, (*par_metrics)[e].train_loss,
                2e-3)
        << "epoch " << e;
    EXPECT_NEAR((*seq_metrics)[e].test_accuracy,
                (*par_metrics)[e].test_accuracy, 0.05)
        << "epoch " << e;
  }
}

TEST(SyncTrainerTest, DeterministicAcrossRuns) {
  const auto train = TrainSet();
  const auto test = TestSet(32);
  TrainerOptions options = BaseOptions(2, QsgdSpec(4));
  auto a = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  auto b = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ma = (*a)->Train(train, test, 2);
  auto mb = (*b)->Train(train, test, 2);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  for (size_t e = 0; e < ma->size(); ++e) {
    EXPECT_DOUBLE_EQ((*ma)[e].train_loss, (*mb)[e].train_loss);
    EXPECT_DOUBLE_EQ((*ma)[e].test_accuracy, (*mb)[e].test_accuracy);
  }
}

TEST(SyncTrainerTest, CommStatsAccumulate) {
  const auto train = TrainSet();
  const auto test = TestSet(32);
  TrainerOptions options = BaseOptions(4, QsgdSpec(4));
  auto trainer = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  ASSERT_TRUE(trainer.ok());
  auto metrics = (*trainer)->Train(train, test, 1);
  ASSERT_TRUE(metrics.ok());
  const CommStats& total = (*trainer)->total_comm();
  EXPECT_GT(total.wire_bytes, 0);
  EXPECT_GT(total.raw_bytes, total.wire_bytes);
  EXPECT_GT(total.comm_seconds, 0.0);
  EXPECT_GT((*trainer)->virtual_seconds(), 0.0);
  EXPECT_GT((*metrics)[0].comm.messages, 0);
}

TEST(SyncTrainerTest, VirtualComputeTimeCharged) {
  const auto train = TrainSet(64);
  const auto test = TestSet(32);
  TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
  options.virtual_compute_seconds_per_iter = 1.5;
  auto trainer = SyncTrainer::Create(MlpFactory({16, 8, 4}), options);
  ASSERT_TRUE(trainer.ok());
  ASSERT_TRUE((*trainer)->Train(train, test, 1).ok());
  // 64 samples / 32 batch = 2 iterations -> at least 3 virtual seconds.
  EXPECT_GE((*trainer)->virtual_seconds(), 3.0);
}

TEST(SyncTrainerTest, NcclPrimitiveTrainsAndSimulatesPayload) {
  const auto train = TrainSet();
  const auto test = TestSet(32);
  TrainerOptions options = BaseOptions(4, QsgdSpec(4));
  options.primitive = CommPrimitive::kNccl;
  auto trainer = SyncTrainer::Create(MlpFactory({16, 12, 4}), options);
  ASSERT_TRUE(trainer.ok());
  auto metrics = (*trainer)->Train(train, test, 2);
  ASSERT_TRUE(metrics.ok());
  // Simulated low-precision NCCL: compressed wire bytes...
  EXPECT_LT((*trainer)->total_comm().wire_bytes,
            (*trainer)->total_comm().raw_bytes);

  // ...but gradients (and thus training) identical to full-precision NCCL.
  TrainerOptions fp_options = BaseOptions(4, FullPrecisionSpec());
  fp_options.primitive = CommPrimitive::kNccl;
  auto fp_trainer = SyncTrainer::Create(MlpFactory({16, 12, 4}), fp_options);
  ASSERT_TRUE(fp_trainer.ok());
  auto fp_metrics = (*fp_trainer)->Train(train, test, 2);
  ASSERT_TRUE(fp_metrics.ok());
  EXPECT_DOUBLE_EQ((*metrics)[1].train_loss, (*fp_metrics)[1].train_loss);
}

TEST(SyncTrainerTest, LearningRateScheduleApplies) {
  const auto train = TrainSet(64);
  const auto test = TestSet(32);
  TrainerOptions options = BaseOptions(1, FullPrecisionSpec());
  options.learning_rate = 0.1f;
  options.lr_schedule = {{1, 0.0000001f}};  // effectively freeze at epoch 1
  auto trainer = SyncTrainer::Create(MlpFactory({16, 8, 4}), options);
  ASSERT_TRUE(trainer.ok());
  auto metrics = (*trainer)->Train(train, test, 3);
  ASSERT_TRUE(metrics.ok());
  // With a frozen LR from epoch 1 on, epochs 1 and 2 see (almost) the same
  // weights -> nearly identical test loss.
  EXPECT_NEAR((*metrics)[1].test_loss, (*metrics)[2].test_loss, 1e-2);
}

TEST(SyncTrainerTest, EvaluateCountsAllSamples) {
  const auto train = TrainSet(64);
  const auto test = TestSet(100);
  TrainerOptions options = BaseOptions(1, FullPrecisionSpec());
  options.eval_batch_size = 32;  // forces multiple eval batches
  auto trainer = SyncTrainer::Create(MlpFactory({16, 8, 4}), options);
  ASSERT_TRUE(trainer.ok());
  const EvalResult eval = (*trainer)->Evaluate(test);
  EXPECT_GE(eval.correct, 0);
  EXPECT_LE(eval.correct, 100);
  EXPECT_GT(eval.loss_sum, 0.0);
}

// Reference evaluation: one eval Forward of replica 0 per batch on the
// calling thread, the batch sums added in batch order.
EvalResult SerialReferenceEvaluate(Network& net, const Dataset& dataset,
                                   int64_t batch_size) {
  EvalResult total;
  std::vector<int64_t> indices;
  for (int64_t begin = 0; begin < dataset.NumSamples();
       begin += batch_size) {
    const int64_t end = std::min(begin + batch_size, dataset.NumSamples());
    indices.clear();
    for (int64_t i = begin; i < end; ++i) indices.push_back(i);
    const Batch batch = MakeBatch(dataset, indices);
    const Tensor logits = net.Forward(batch.inputs, /*training=*/false);
    const EvalResult r = EvaluateSoftmaxCrossEntropy(logits, batch.labels);
    total.loss_sum += r.loss_sum;
    total.correct += r.correct;
    total.correct_top5 += r.correct_top5;
  }
  return total;
}

TEST(SyncTrainerTest, ParallelEvaluateMatchesSerialLoopBitForBit) {
  // Ten classes, so top-5 is not trivially every sample; 263 test samples,
  // which neither 7 nor 256 divides, nor 2 or 3 threads a batch of 7.
  SyntheticImageOptions image_options;
  image_options.num_classes = 10;
  image_options.channels = 1;
  image_options.height = 4;
  image_options.width = 4;
  image_options.num_samples = 64;
  image_options.signal = 1.0f;
  image_options.noise = 1.0f;
  const SyntheticImageDataset train(image_options);
  image_options.num_samples = 263;
  image_options.sample_offset = 1 << 20;
  const SyntheticImageDataset test(image_options);

  for (const int threads : {1, 2, 3}) {
    for (const int64_t eval_batch : {int64_t{1}, int64_t{7}, int64_t{256}}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, eval batch "
                                      << eval_batch);
      TrainerOptions options = BaseOptions(2, FullPrecisionSpec());
      options.eval_batch_size = eval_batch;
      options.execution = ExecutionContext::WithThreads(threads);
      auto trainer =
          SyncTrainer::Create(MlpFactory({16, 12, 10}), options);
      ASSERT_TRUE(trainer.ok());
      ASSERT_TRUE((*trainer)->Train(train, test, 1).ok());

      const EvalResult parallel = (*trainer)->Evaluate(test);
      const EvalResult serial =
          SerialReferenceEvaluate((*trainer)->replica(0), test, eval_batch);
      EXPECT_EQ(std::bit_cast<uint64_t>(parallel.loss_sum),
                std::bit_cast<uint64_t>(serial.loss_sum))
          << parallel.loss_sum << " vs " << serial.loss_sum;
      EXPECT_EQ(parallel.correct, serial.correct);
      EXPECT_EQ(parallel.correct_top5, serial.correct_top5);
      EXPECT_LT(serial.correct_top5, test.NumSamples());
    }
  }
}

}  // namespace
}  // namespace lpsgd

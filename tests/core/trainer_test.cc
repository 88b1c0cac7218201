// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "core/trainer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "ckpt/format.h"
#include "comm/allreduce.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "quant/policy.h"
#include "tensor/ops.h"

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

// Central invariant of synchronous data-parallel SGD: every rank applies
// the identical averaged update, so K replicas each stepped by their own
// optimizer stay bit-identical. The trainer instead steps rank 0 once and
// mirrors its parameters, so it is checked against that K-optimizer loop,
// kept here as the reference, on the same batch stream.
struct ReferenceRun {
  std::vector<Network> replicas;
  std::vector<SgdMomentumOptimizer> optimizers;
};

ReferenceRun TrainReference(const SyncTrainer::NetworkFactory& factory,
                            const TrainerOptions& options,
                            const Dataset& train, int epochs) {
  const int k = options.num_gpus;
  ReferenceRun run;
  std::vector<std::vector<ParamRef>> params;
  for (int r = 0; r < k; ++r) {
    run.replicas.push_back(factory(options.seed));
    run.optimizers.emplace_back(options.learning_rate, options.momentum);
  }
  for (int r = 0; r < k; ++r) {
    Network& replica = run.replicas[static_cast<size_t>(r)];
    if (r > 0) replica.CopyParamsFrom(run.replicas[0]);
    params.push_back(replica.Params());
  }
  const std::vector<bool> quantized =
      ChooseQuantizedMatrices(params[0], options.policy);
  auto codec = options.codec.Create();
  CHECK_OK(codec.status());
  std::vector<std::vector<std::vector<float>>> errors(
      static_cast<size_t>(k),
      std::vector<std::vector<float>>(params[0].size()));
  for (size_t m = 0; m < params[0].size(); ++m) {
    const Shape& shape = params[0][m].quant_shape;
    if ((*codec)->UsesErrorFeedback() && quantized[m] &&
        (options.primitive == CommPrimitive::kMpi ||
         (*codec)->SparseCount(shape) > 0)) {
      for (auto& rank_errors : errors) {
        rank_errors[m].assign(static_cast<size_t>(shape.element_count()),
                              0.0f);
      }
    }
  }
  auto aggregator = CreateAggregator(options.primitive, k, options.codec,
                                     options.machine,
                                     ExecutionContext::Serial());
  CHECK_OK(aggregator.status());

  BatchIterator iterator(&train, options.global_batch_size,
                         options.seed ^ 0xdadaULL);
  int64_t iteration = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    iterator.StartEpoch(epoch);
    Batch batch;
    while (iterator.NextBatch(&batch)) {
      CHECK_EQ(batch.size(), options.global_batch_size);
      const int64_t shard = batch.size() / k;
      const int64_t sample_elems = batch.inputs.size() / batch.size();
      std::vector<int64_t> dims = batch.inputs.shape().dims();
      dims[0] = shard;
      for (int r = 0; r < k; ++r) {
        Network& replica = run.replicas[static_cast<size_t>(r)];
        replica.ZeroGrads();
        Tensor inputs{Shape(dims)};
        std::copy(batch.inputs.data() + r * shard * sample_elems,
                  batch.inputs.data() + (r + 1) * shard * sample_elems,
                  inputs.data());
        const std::vector<int> labels(batch.labels.begin() + r * shard,
                                      batch.labels.begin() + (r + 1) * shard);
        const Tensor logits = replica.Forward(inputs, /*training=*/true);
        replica.Backward(SoftmaxCrossEntropy(logits, labels).logits_grad);
      }
      std::vector<MatrixSlot> slots(params[0].size());
      for (size_t m = 0; m < slots.size(); ++m) {
        slots[m].quant_shape = params[0][m].quant_shape;
        slots[m].quantized = quantized[m];
        for (int r = 0; r < k; ++r) {
          slots[m].rank_grads.push_back(
              params[static_cast<size_t>(r)][m].grad->data());
          slots[m].rank_errors.push_back(&errors[static_cast<size_t>(r)][m]);
        }
      }
      CHECK_OK((*aggregator)->AllReduce(&slots, iteration).status());
      for (int r = 0; r < k; ++r) {
        for (ParamRef& param : params[static_cast<size_t>(r)]) {
          Scale(1.0f / static_cast<float>(k), param.grad);
        }
        run.optimizers[static_cast<size_t>(r)].Step(
            params[static_cast<size_t>(r)]);
      }
      ++iteration;
    }
  }
  return run;
}

// The LPCK params and optimizer sections alone, serialized.
std::string ParamsAndMomentumBytes(const ckpt::TrainerState& state) {
  ckpt::TrainerState sections;
  sections.params = state.params;
  sections.optimizer = state.optimizer;
  return ckpt::Serialize(sections);
}

class ReplicaConsistencyTest
    : public ::testing::TestWithParam<std::tuple<CodecSpec, CommPrimitive>> {
};

TEST_P(ReplicaConsistencyTest, MatchesOneOptimizerPerReplica) {
  TrainerOptions options = BaseOptions(4, std::get<0>(GetParam()));
  options.primitive = std::get<1>(GetParam());
  const SyncTrainer::NetworkFactory factory = MlpFactory({16, 12, 4});
  auto trainer = SyncTrainer::Create(factory, options);
  ASSERT_TRUE(trainer.ok());
  const auto train = TrainSet();
  const auto test = TestSet(32);
  ASSERT_TRUE((*trainer)->Train(train, test, 2).ok());

  ReferenceRun reference = TrainReference(factory, options, train, 2);
  ckpt::TrainerState expected;
  for (ParamRef& param : reference.replicas[0].Params()) {
    const Tensor& value = *param.value;
    expected.params.push_back(
        {param.name, value.shape().dims(),
         std::vector<float>(value.data(), value.data() + value.size())});
  }
  for (const Tensor& velocity : reference.optimizers[0].velocity()) {
    expected.optimizer.push_back(
        {"", velocity.shape().dims(),
         std::vector<float>(velocity.data(),
                            velocity.data() + velocity.size())});
  }
  EXPECT_EQ(ParamsAndMomentumBytes((*trainer)->CaptureState()),
            ParamsAndMomentumBytes(expected));

  for (int r = 1; r < 4; ++r) {
    SCOPED_TRACE(r);
    const std::vector<ParamRef> params = (*trainer)->replica(r).Params();
    const std::vector<ParamRef> reference_params =
        reference.replicas[static_cast<size_t>(r)].Params();
    ASSERT_EQ(params.size(), reference_params.size());
    for (size_t m = 0; m < params.size(); ++m) {
      ASSERT_EQ(params[m].value->size(), reference_params[m].value->size());
      EXPECT_EQ(std::memcmp(params[m].value->data(),
                            reference_params[m].value->data(),
                            sizeof(float) *
                                static_cast<size_t>(params[m].value->size())),
                0)
          << params[m].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, ReplicaConsistencyTest,
    ::testing::Combine(
        ::testing::Values(FullPrecisionSpec(), QsgdSpec(4), QsgdSpec(8),
                          OneBitSgdSpec(), OneBitSgdReshapedSpec(16),
                          TopKSpec(0.25), AdaptiveQsgdSpec(4), TernGradSpec(),
                          NuqsgdSpec(4), EcqSgdSpec(4)),
        ::testing::Values(CommPrimitive::kMpi, CommPrimitive::kNccl)),
    [](const ::testing::TestParamInfo<
        std::tuple<CodecSpec, CommPrimitive>>& info) {
      std::string out;
      for (char c : std::get<0>(info.param).Label()) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out + (std::get<1>(info.param) == CommPrimitive::kMpi ? "Mpi"
                                                                   : "Nccl");
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

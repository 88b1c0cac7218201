// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Layer's eval-pass contract (nn/layer.h): an eval Forward writes no state
// that another eval pass reads, so threads may run eval passes of one
// Network on disjoint row slices of a batch at once. SyncTrainer::Evaluate
// relies on it. Each slice's logits must be byte-equal to the same rows of
// one serial eval Forward, and a Backward after the eval passes must see
// the last training Forward's caches. Run under ThreadSanitizer, these
// tests also show the passes share no unsynchronized state.
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/network.h"
#include "nn/pool.h"

namespace lpsgd {
namespace {

constexpr uint64_t kSeed = 21;
constexpr int64_t kEvalRows = 10;  // 2, 3 and 4 slices are uneven
constexpr int64_t kTrainRows = 6;

// What the Backward after the concurrent eval passes is compared with.
enum class BackwardCheck {
  // Conv2d: an eval pass invalidates the input its training Forward
  // cached, so Backward must fail.
  kNone,
  // The Backward of a net that saw no eval pass since its training
  // Forward: every layer's Backward reads training caches only.
  kNoEvalPass,
  // The Backward of a net that saw one serial eval pass: Dropout's eval
  // pass makes its next Backward the identity.
  kSerialEvalPass,
};

struct EvalCase {
  std::string name;
  std::function<Network()> build;
  Shape sample_shape;
  int classes;
  BackwardCheck backward;
};

Network BuildDropoutMlp() {
  Rng rng(kSeed);
  Network net;
  net.Add(std::make_unique<FlattenLayer>("flatten"));
  net.Add(std::make_unique<DenseLayer>("fc1", 12, 16, &rng));
  net.Add(std::make_unique<ActivationLayer>("relu", ActivationKind::kRelu));
  net.Add(std::make_unique<DropoutLayer>("drop", 0.5f, kSeed));
  net.Add(std::make_unique<DenseLayer>("fc2", 16, 4, &rng));
  return net;
}

std::vector<EvalCase> Cases() {
  return {
      {"MiniResNet",
       [] { return BuildMiniResNet(3, 8, /*num_blocks=*/2, /*width=*/4, 10,
                                   kSeed); },
       Shape({3, 8, 8}), 10, BackwardCheck::kNone},
      {"MiniAlexNet", [] { return BuildMiniAlexNet(3, 8, 10, kSeed); },
       Shape({3, 8, 8}), 10, BackwardCheck::kNone},
      {"DeepLstm",
       [] { return BuildDeepLstmClassifier(6, 8, /*num_lstm_layers=*/2, 5,
                                           kSeed); },
       Shape({7, 6}), 5, BackwardCheck::kNoEvalPass},
      {"DropoutMlp", BuildDropoutMlp, Shape({12}), 4,
       BackwardCheck::kSerialEvalPass},
  };
}

Tensor RandomBatch(int64_t rows, const Shape& sample_shape, uint64_t seed) {
  std::vector<int64_t> dims = {rows};
  for (int64_t d : sample_shape.dims()) dims.push_back(d);
  Tensor batch{Shape(dims)};
  Rng rng(seed);
  batch.FillGaussian(&rng, 1.0f);
  return batch;
}

// Rows [first, last) of `batch`.
Tensor Rows(const Tensor& batch, int64_t first, int64_t last) {
  std::vector<int64_t> dims = batch.shape().dims();
  const int64_t row_elems = batch.size() / dims[0];
  dims[0] = last - first;
  Tensor slice{Shape(dims)};
  std::memcpy(slice.data(), batch.data() + first * row_elems,
              static_cast<size_t>(slice.size()) * sizeof(float));
  return slice;
}

// One training Forward; returns the gradient of its loss w.r.t. the
// logits, for the Backward that pairs with it.
Tensor TrainingForward(Network* net, const Tensor& inputs, int classes) {
  std::vector<int> labels;
  for (int64_t r = 0; r < inputs.shape().dim(0); ++r) {
    labels.push_back(static_cast<int>(r % classes));
  }
  return SoftmaxCrossEntropy(net->Forward(inputs, /*training=*/true),
                             labels)
      .logits_grad;
}

void ExpectSameGradients(Network& actual, Network& expected) {
  std::vector<ParamRef> a = actual.Params();
  std::vector<ParamRef> e = expected.Params();
  ASSERT_EQ(a.size(), e.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].grad->size(), e[i].grad->size()) << a[i].name;
    EXPECT_EQ(std::memcmp(a[i].grad->data(), e[i].grad->data(),
                          static_cast<size_t>(a[i].grad->size()) *
                              sizeof(float)),
              0)
        << a[i].name << " gradient differs";
  }
}

class ConcurrentEvalTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(ConcurrentEvalTest, SlicesMatchOneSerialEvalPass) {
  const EvalCase& c = GetParam();
  const Tensor train_inputs = RandomBatch(kTrainRows, c.sample_shape, 1);
  const Tensor eval_inputs = RandomBatch(kEvalRows, c.sample_shape, 2);

  // `net` runs the concurrent eval passes; `serial` one eval pass over the
  // whole batch. Both first take the same training Forward, so BatchNorm's
  // running statistics and Dropout's call counter agree.
  Network net = c.build();
  Network serial = c.build();
  const Tensor logits_grad =
      TrainingForward(&net, train_inputs, c.classes);
  TrainingForward(&serial, train_inputs, c.classes);
  const Tensor expected = serial.Forward(eval_inputs, /*training=*/false);
  ASSERT_EQ(expected.shape(), Shape({kEvalRows, c.classes}));

  for (int threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    std::vector<Tensor> logits(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const Tensor slice = Rows(eval_inputs, t * kEvalRows / threads,
                                  (t + 1) * kEvalRows / threads);
        logits[static_cast<size_t>(t)] =
            net.Forward(slice, /*training=*/false);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (int t = 0; t < threads; ++t) {
      const int64_t first = t * kEvalRows / threads;
      const int64_t last = (t + 1) * kEvalRows / threads;
      const Tensor& actual = logits[static_cast<size_t>(t)];
      ASSERT_EQ(actual.shape(), Shape({last - first, c.classes}));
      EXPECT_EQ(std::memcmp(actual.data(),
                            expected.data() + first * c.classes,
                            static_cast<size_t>(actual.size()) *
                                sizeof(float)),
                0)
          << "rows [" << first << ", " << last << ") differ";
    }
  }

  if (c.backward == BackwardCheck::kNone) return;
  Network reference = c.build();
  TrainingForward(&reference, train_inputs, c.classes);
  if (c.backward == BackwardCheck::kSerialEvalPass) {
    reference.Forward(eval_inputs, /*training=*/false);
  }
  net.Backward(logits_grad);
  reference.Backward(logits_grad);
  ExpectSameGradients(net, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, ConcurrentEvalTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lpsgd

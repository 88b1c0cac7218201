// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Allocation-regression tests for the layer compute path: after warm-up, a
// Conv2dLayer training pass, an LstmLayer training pass and a ReLU pass
// allocate only the tensors they return, with every padded-input, Gemm,
// stack and cache buffer reused; so does an eval pass of each on a thread
// whose per-thread scratch is warm, also when that scratch changes shape
// between calls. This test
// overrides the global allocator to count allocations, so it lives in its
// own binary (nn_allocation_test) and must not be merged into nn_test.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/lstm.h"
#include "tensor/tensor.h"

namespace {

// Allocation counting is armed only around the exact calls under test, so
// gtest bookkeeping between assertions is not counted.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// noinline keeps the replaced operators out of callers, so the optimizer
// cannot pair an inlined free() against what it believes is the built-in
// allocator (-Wmismatched-new-delete) — and every allocation goes through
// the counter.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace lpsgd {
namespace {

template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocation_count.load(std::memory_order_relaxed);
}

// What returning one new Tensor costs: its Shape's dims and its data.
int64_t AllocationsPerTensor(const Shape& shape) {
  Tensor held;
  return CountAllocations([&] { held = Tensor(shape); });
}

// The conv_compute body conv (16 -> 16 channels, 16x16, 3x3, pad 1) at its
// per-rank batch of 16. The layer's cached (padded) input is sized by the
// first pass and reused after it.
TEST(LayerAllocationTest, ConvTrainingPassAllocatesOnlyItsResults) {
  Rng rng(11);
  Conv2dLayer conv("conv", 16, 16, 3, 1, 1, &rng);
  const Shape shape({16, 16, 16, 16});
  Tensor input(shape);
  input.FillGaussian(&rng, 1.0f);
  Tensor output_grad(shape);
  output_grad.FillGaussian(&rng, 1.0f);

  Tensor output;
  Tensor input_grad;
  for (int warm_up = 0; warm_up < 2; ++warm_up) {
    output = conv.Forward(input, /*training=*/true);
    input_grad = conv.Backward(output_grad);
  }
  const int64_t per_tensor = AllocationsPerTensor(shape);
  EXPECT_EQ(per_tensor, 2);
  for (int pass = 0; pass < 3; ++pass) {
    const int64_t count = CountAllocations([&] {
      output = conv.Forward(input, /*training=*/true);
      input_grad = conv.Backward(output_grad);
    });
    EXPECT_EQ(count, 2 * per_tensor) << "pass " << pass;
  }
}

// The two layers of the lstm_sparse_nccl network, BuildDeepLstmClassifier(
// 32, 64, 2, 8), at its per-rank batch of 8 and 20 timesteps.
TEST(LayerAllocationTest, LstmTrainingPassAllocatesOnlyItsResults) {
  struct LstmShape {
    int input_dim;
    bool return_sequences;
  };
  for (const LstmShape s : {LstmShape{32, true}, LstmShape{64, false}}) {
    SCOPED_TRACE(s.input_dim);
    Rng rng(13);
    LstmLayer lstm("lstm", s.input_dim, 64, &rng, s.return_sequences);
    const Shape input_shape({8, 20, s.input_dim});
    const Shape output_shape =
        s.return_sequences ? Shape({8, 20, 64}) : Shape({8, 64});
    Tensor input(input_shape);
    input.FillGaussian(&rng, 1.0f);
    Tensor output_grad(output_shape);
    output_grad.FillGaussian(&rng, 1.0f);

    Tensor output;
    Tensor input_grad;
    for (int warm_up = 0; warm_up < 2; ++warm_up) {
      output = lstm.Forward(input, /*training=*/true);
      input_grad = lstm.Backward(output_grad);
    }
    const int64_t results = AllocationsPerTensor(output_shape) +
                            AllocationsPerTensor(input_shape);
    EXPECT_EQ(results, 4);
    for (int pass = 0; pass < 3; ++pass) {
      const int64_t count = CountAllocations([&] {
        output = lstm.Forward(input, /*training=*/true);
        input_grad = lstm.Backward(output_grad);
      });
      EXPECT_EQ(count, results) << "pass " << pass;
    }
  }
}

TEST(LayerAllocationTest, ReluPassAllocatesOnlyItsResults) {
  Rng rng(12);
  ActivationLayer relu("relu", ActivationKind::kRelu);
  const Shape shape({16, 16, 16, 16});
  Tensor input(shape);
  input.FillGaussian(&rng, 1.0f);
  Tensor grad(shape);
  grad.FillGaussian(&rng, 1.0f);

  Tensor output = relu.Forward(input, /*training=*/true);
  Tensor input_grad = relu.Backward(grad);
  const int64_t per_tensor = AllocationsPerTensor(shape);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(CountAllocations(
                  [&] { output = relu.Forward(input, /*training=*/true); }),
              per_tensor)
        << "forward, pass " << pass;
    EXPECT_EQ(CountAllocations([&] { input_grad = relu.Backward(grad); }),
              per_tensor)
        << "backward, pass " << pass;
  }
}

// SyncTrainer::Evaluate runs eval passes on every pool thread; each thread
// warms its own scratch once and then allocates only the results. The
// conv_compute body conv at a 32-sample eval slice and at a 40-sample one:
// the per-thread padded input and Gemm output are sized for the whole
// slice and change shape between the two.
TEST(LayerAllocationTest, ConvEvalPassAllocatesOnlyItsResult) {
  for (const int64_t batch : {32, 40}) {
    SCOPED_TRACE(batch);
    Rng rng(14);
    Conv2dLayer conv("conv", 16, 16, 3, 1, 1, &rng);
    const Shape shape({batch, 16, 16, 16});
    Tensor input(shape);
    input.FillGaussian(&rng, 1.0f);

    Tensor output = conv.Forward(input, /*training=*/false);
    const int64_t per_tensor = AllocationsPerTensor(shape);
    for (int pass = 0; pass < 3; ++pass) {
      EXPECT_EQ(CountAllocations([&] {
                  output = conv.Forward(input, /*training=*/false);
                }),
                per_tensor)
          << "pass " << pass;
    }
  }
}

// The lstm_sparse_nccl layers at a 16-sample eval slice and 20 timesteps.
TEST(LayerAllocationTest, LstmEvalPassAllocatesOnlyItsResult) {
  struct LstmShape {
    int input_dim;
    bool return_sequences;
  };
  for (const LstmShape s : {LstmShape{32, true}, LstmShape{64, false}}) {
    SCOPED_TRACE(s.input_dim);
    Rng rng(15);
    LstmLayer lstm("lstm", s.input_dim, 64, &rng, s.return_sequences);
    Tensor input(Shape({16, 20, s.input_dim}));
    input.FillGaussian(&rng, 1.0f);
    const Shape output_shape =
        s.return_sequences ? Shape({16, 20, 64}) : Shape({16, 64});

    Tensor output = lstm.Forward(input, /*training=*/false);
    const int64_t per_tensor = AllocationsPerTensor(output_shape);
    for (int pass = 0; pass < 3; ++pass) {
      EXPECT_EQ(CountAllocations([&] {
                  output = lstm.Forward(input, /*training=*/false);
                }),
                per_tensor)
          << "pass " << pass;
    }
  }
}

// Both lstm_sparse_nccl layers evaluated back to back on one thread, as
// one eval Forward of the network runs them: they share the thread's eval
// scratch, whose input stack switches between widths 32 and 64.
TEST(LayerAllocationTest, StackedLstmEvalPassesAllocateOnlyTheirResults) {
  Rng rng(18);
  LstmLayer first("lstm0", 32, 64, &rng, /*return_sequences=*/true);
  LstmLayer second("lstm1", 64, 64, &rng, /*return_sequences=*/false);
  Tensor input(Shape({16, 20, 32}));
  input.FillGaussian(&rng, 1.0f);

  Tensor hidden = first.Forward(input, /*training=*/false);
  Tensor output = second.Forward(hidden, /*training=*/false);
  const int64_t results = AllocationsPerTensor(hidden.shape()) +
                          AllocationsPerTensor(output.shape());
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(CountAllocations([&] {
                hidden = first.Forward(input, /*training=*/false);
                output = second.Forward(hidden, /*training=*/false);
              }),
              results)
        << "pass " << pass;
  }
}

TEST(LayerAllocationTest, ReluEvalPassAllocatesOnlyItsResult) {
  Rng rng(16);
  ActivationLayer relu("relu", ActivationKind::kRelu);
  const Shape shape({16, 16, 16, 16});
  Tensor input(shape);
  input.FillGaussian(&rng, 1.0f);

  Tensor output = relu.Forward(input, /*training=*/false);
  const int64_t per_tensor = AllocationsPerTensor(shape);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(CountAllocations([&] {
                output = relu.Forward(input, /*training=*/false);
              }),
              per_tensor)
        << "pass " << pass;
  }
}

}  // namespace
}  // namespace lpsgd

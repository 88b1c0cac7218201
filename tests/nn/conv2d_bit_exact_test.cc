// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Conv2dLayer packs Gemm's B panels straight from its input (an implicit
// im2col) and runs one forward Gemm and one weight-gradient Gemm over the
// whole batch. These tests keep the per-sample loop over explicit im2col
// patches that it replaced as the golden reference, and require every
// output, weight gradient, bias gradient and input gradient to match it
// byte for byte, under every Gemm ISA, as GemmBitExactTest does for the
// blocked Gemm.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/simd.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "../tensor/im2col_reference.h"

namespace lpsgd {
namespace {

// The NaN an invalid operation produces on this CPU. With one NaN payload
// in the inputs, every NaN in every result carries it too, whatever the
// operand order of an add, so the byte comparison stays exact.
float HardwareNan() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

std::vector<SimdIsa> IsasUnderTest() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (SimdIsaSupported(SimdIsa::kAvx2)) isas.push_back(SimdIsa::kAvx2);
  return isas;
}

struct ConvCase {
  const char* name;
  int in_channels;
  int out_channels;
  int size;  // square input, size x size
  int kernel;
  int stride;
  int padding;
  int64_t batch;
  bool specials;  // exact zeros, -0 and one NaN in the input
};

struct ConvResult {
  Tensor output;
  Tensor weight_grad;
  Tensor bias_grad;
  Tensor input_grad;
};

// The per-sample loop Conv2dLayer ran before it batched: im2col into its
// own patches matrix per sample, then per sample one forward Gemm, one
// beta = 1 Gemm into dW, the bias sums, one dX Gemm and col2im. The
// gradients accumulate into `weight_grad` and `bias_grad`.
ConvResult PerSampleReference(const ConvCase& c, const Tensor& weight,
                              const Tensor& bias, const Tensor& input,
                              const Tensor& output_grad, Tensor weight_grad,
                              Tensor bias_grad) {
  const int64_t batch = c.batch;
  const int out = ConvOutputSize(c.size, c.kernel, c.stride, c.padding);
  const int64_t plane = int64_t{out} * out;
  const int64_t patch_width = int64_t{c.in_channels} * c.kernel * c.kernel;
  const int64_t sample_in = input.size() / batch;
  const int64_t sample_out = int64_t{c.out_channels} * plane;

  ConvResult r;
  r.output = Tensor(Shape({batch, c.out_channels, out, out}));
  std::vector<Tensor> patches;
  for (int64_t s = 0; s < batch; ++s) {
    Tensor sample_patches(Shape({plane, patch_width}));
    Im2Col(input.data() + s * sample_in, c.in_channels, c.size, c.size,
           c.kernel, c.kernel, c.stride, c.padding, sample_patches.data());
    Tensor out_mat(Shape({c.out_channels, plane}));
    Gemm(false, true, 1.0f, weight, sample_patches, 0.0f, &out_mat);
    for (int oc = 0; oc < c.out_channels; ++oc) {
      for (int64_t p = 0; p < plane; ++p) {
        r.output.data()[s * sample_out + oc * plane + p] =
            out_mat.at(oc, p) + bias.at(oc);
      }
    }
    patches.push_back(std::move(sample_patches));
  }

  r.input_grad = Tensor(input.shape());
  Tensor grad_mat(Shape({c.out_channels, plane}));
  for (int64_t s = 0; s < batch; ++s) {
    std::copy(output_grad.data() + s * sample_out,
              output_grad.data() + (s + 1) * sample_out, grad_mat.data());
    const Tensor& sample_patches = patches[static_cast<size_t>(s)];
    Gemm(false, false, 1.0f, grad_mat, sample_patches, 1.0f, &weight_grad);
    for (int oc = 0; oc < c.out_channels; ++oc) {
      float sum = 0.0f;
      for (int64_t p = 0; p < plane; ++p) sum += grad_mat.at(oc, p);
      bias_grad.at(oc) += sum;
    }
    Tensor patch_grad(sample_patches.shape());
    Gemm(true, false, 1.0f, grad_mat, weight, 0.0f, &patch_grad);
    Tensor image_grad(Shape({c.in_channels, c.size, c.size}));
    Col2Im(patch_grad.data(), c.in_channels, c.size, c.size, c.kernel,
           c.kernel, c.stride, c.padding, image_grad.data());
    std::copy(image_grad.data(), image_grad.data() + sample_in,
              r.input_grad.data() + s * sample_in);
  }
  r.weight_grad = std::move(weight_grad);
  r.bias_grad = std::move(bias_grad);
  return r;
}

void ExpectSameBits(const Tensor& actual, const Tensor& expected,
                    const char* what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  if (std::memcmp(actual.data(), expected.data(),
                  static_cast<size_t>(actual.size()) * sizeof(float)) == 0) {
    return;
  }
  for (int64_t i = 0; i < actual.size(); ++i) {
    uint32_t a = 0, e = 0;
    std::memcpy(&a, actual.data() + i, sizeof(a));
    std::memcpy(&e, expected.data() + i, sizeof(e));
    if (a != e) {
      ADD_FAILURE() << what << " differs first at element " << i << ": "
                    << actual.at(i) << " vs reference " << expected.at(i);
      return;
    }
  }
}

// Gaussian values with a third of them exact zeros (as after a ReLU) and,
// with `specials`, some -0 and one NaN.
void FillActivations(Rng* rng, bool specials, Tensor* t) {
  t->FillGaussian(rng, 1.0f);
  for (int64_t i = 0; i < t->size(); ++i) {
    if (rng->NextUint64(3) == 0) t->data()[i] = 0.0f;
  }
  if (!specials) return;
  for (int64_t i = 1; i < t->size(); i += 7) t->data()[i] = -0.0f;
  t->data()[t->size() / 2] = HardwareNan();
}

void ExpectMatchesReference(const ConvCase& c) {
  SCOPED_TRACE(c.name);
  Rng rng(0xc0417 + static_cast<uint64_t>(c.in_channels * 131 + c.stride));
  Conv2dLayer conv("conv", c.in_channels, c.out_channels, c.kernel, c.stride,
                   c.padding, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  ASSERT_EQ(params.size(), 2u);
  Tensor& weight = *params[0].value;
  Tensor& bias = *params[1].value;
  bias.FillGaussian(&rng, 0.1f);
  // Gradients start nonzero, as mid-step in a network: both accumulate.
  params[0].grad->FillGaussian(&rng, 0.01f);
  params[1].grad->FillGaussian(&rng, 0.01f);

  const int out = ConvOutputSize(c.size, c.kernel, c.stride, c.padding);
  Tensor input(Shape({c.batch, c.in_channels, c.size, c.size}));
  Tensor output_grad(Shape({c.batch, c.out_channels, out, out}));
  // Two passes, so the second one runs on reused buffers.
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    FillActivations(&rng, c.specials, &input);
    FillActivations(&rng, /*specials=*/false, &output_grad);
    const ConvResult expected =
        PerSampleReference(c, weight, bias, input, output_grad,
                           *params[0].grad, *params[1].grad);
    const Tensor output = conv.Forward(input, /*training=*/true);
    const Tensor input_grad = conv.Backward(output_grad);
    ExpectSameBits(output, expected.output, "output");
    ExpectSameBits(*params[0].grad, expected.weight_grad, "dW");
    ExpectSameBits(*params[1].grad, expected.bias_grad, "db");
    ExpectSameBits(input_grad, expected.input_grad, "dX");
  }
}

// The conv layers of BuildMiniResNet(3, 16, 2, 16, 10), the benchmark's
// conv_compute network, at its per-rank batch, plus the strided shapes of
// the deeper residual stages, plus shapes that put the panel edges of the
// implicit im2col where it could slip.
constexpr ConvCase kCases[] = {
    {"resnet_body", 16, 16, 16, 3, 1, 1, 16, false},
    {"resnet_stem", 3, 16, 16, 3, 1, 1, 16, false},
    {"stride2_3x3", 16, 32, 16, 3, 2, 1, 8, false},
    {"projection_1x1_stride2", 16, 32, 16, 1, 2, 0, 8, false},
    {"batch1", 16, 16, 16, 3, 1, 1, 1, false},
    {"specials", 16, 16, 16, 3, 1, 1, 4, true},
    {"specials_stride2", 8, 16, 9, 3, 2, 1, 3, true},
    // Window rows 5 wide, and two padding columns on each side.
    {"kernel5_pad2", 4, 8, 12, 5, 1, 2, 3, true},
    // K = 288 spans three forward k-panels (128, 128, 32).
    {"in_channels32", 32, 16, 8, 3, 1, 1, 4, false},
    // K = 1152 spans two weight-gradient column panels (1024, 128).
    {"in_channels128", 128, 4, 4, 3, 1, 1, 2, false},
    // out_w = 40 > 32: forward strips start mid output row.
    {"wide40", 3, 8, 40, 3, 1, 1, 2, true},
    // plane = 6 x 6 = 36: weight-gradient k-panels of 32 positions span
    // two samples, and the last forward strip is partial.
    {"stride2_plane36", 8, 8, 11, 3, 2, 1, 5, true},
};

TEST(Conv2dBitExactTest, MatchesPerSampleReference) {
  for (const SimdIsa isa : IsasUnderTest()) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimdIsa force(isa);
    for (const ConvCase& c : kCases) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(c));
    }
  }
}

TEST(Conv2dBitExactTest, EvalForwardMatchesTrainingForward) {
  // An eval pass pads into per-thread scratch instead of the layer's
  // cached input, at an odd batch of 37.
  Rng rng(37);
  Conv2dLayer conv("conv", 16, 16, 3, 1, 1, &rng);
  std::vector<ParamRef> params;
  conv.CollectParams(&params);
  params[1].value->FillGaussian(&rng, 0.1f);
  Tensor input(Shape({37, 16, 16, 16}));
  FillActivations(&rng, /*specials=*/true, &input);
  for (const SimdIsa isa : IsasUnderTest()) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimdIsa force(isa);
    const Tensor training = conv.Forward(input, /*training=*/true);
    const Tensor eval = conv.Forward(input, /*training=*/false);
    ExpectSameBits(eval, training, "eval output");
  }
}

TEST(Conv2dLayerDeathTest, BackwardWithoutTrainingForwardFails) {
  Rng rng(5);
  Conv2dLayer conv("conv", 2, 4, 3, 1, 1, &rng);
  const Tensor input(Shape({2, 2, 5, 5}), 1.0f);
  const Tensor grad(Shape({2, 4, 5, 5}), 1.0f);
  EXPECT_DEATH(conv.Backward(grad), "training-mode Forward");
  conv.Forward(input, /*training=*/true);
  conv.Forward(input, /*training=*/false);
  // The training pass's cached input is stale once an eval pass ran.
  EXPECT_DEATH(conv.Backward(grad), "training-mode Forward");
}

}  // namespace
}  // namespace lpsgd

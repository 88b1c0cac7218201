// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "tensor/ops.h"

namespace lpsgd {

namespace {

// Samples per im2col + Gemm in an eval-mode Forward. An eval batch can be
// large and nothing reads its patches again, so only a chunk's worth is
// live at a time. Every output element is its own dot product, so the
// chunking cannot change a bit.
constexpr int64_t kEvalChunkSamples = 16;

// Per-thread scratch for the matrices that live for one call only. Each
// grows to the largest size its thread has needed and is then reused.
// {out_c, samples * plane}: Forward's Gemm output, Backward's output grad.
thread_local Tensor t_channel_rows;
// {samples * plane, K}: an eval chunk's patches, Backward's patch grads.
thread_local Tensor t_patch_rows;

}  // namespace

Conv2dLayer::Conv2dLayer(std::string name, int in_channels, int out_channels,
                         int kernel_size, int stride, int padding, Rng* rng)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      weight_(Shape({out_channels,
                     int64_t{in_channels} * kernel_size * kernel_size})),
      weight_grad_(weight_.shape()),
      bias_(Shape({out_channels})),
      bias_grad_(bias_.shape()) {
  CHECK_GT(kernel_size, 0);
  CHECK_GT(stride, 0);
  const float fan_in =
      static_cast<float>(in_channels) * kernel_size * kernel_size;
  weight_.FillGaussian(rng, std::sqrt(2.0f / fan_in));
}

Tensor Conv2dLayer::Forward(const Tensor& input, bool training) {
  CHECK_EQ(input.shape().ndim(), 4) << name_;
  const int64_t batch = input.shape().dim(0);
  CHECK_EQ(input.shape().dim(1), in_channels_) << name_;
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int out_h = ConvOutputSize(height, kernel_size_, stride_, padding_);
  const int out_w = ConvOutputSize(width, kernel_size_, stride_, padding_);
  CHECK_GT(out_h, 0) << name_;
  CHECK_GT(out_w, 0) << name_;

  Tensor output(Shape({batch, out_channels_, out_h, out_w}));
  const int64_t plane = int64_t{out_h} * out_w;
  const int64_t patch_width = weight_.cols();
  has_patches_.store(training, std::memory_order_relaxed);
  if (training) {
    cached_input_shape_ = input.shape();
    patches_.Resize({batch * plane, patch_width});
    ForwardSamples(input, 0, batch, &patches_, &output);
    return output;
  }
  for (int64_t first = 0; first < batch; first += kEvalChunkSamples) {
    const int64_t count = std::min(kEvalChunkSamples, batch - first);
    t_patch_rows.Resize({count * plane, patch_width});
    ForwardSamples(input, first, count, &t_patch_rows, &output);
  }
  return output;
}

void Conv2dLayer::ForwardSamples(const Tensor& input, int64_t first,
                                 int64_t count, Tensor* patches,
                                 Tensor* output) const {
  const int height = static_cast<int>(input.shape().dim(2));
  const int width = static_cast<int>(input.shape().dim(3));
  const int64_t plane = output->shape().dim(2) * output->shape().dim(3);
  const int64_t sample_in = int64_t{in_channels_} * height * width;
  const int64_t sample_out = int64_t{out_channels_} * plane;
  const int64_t n = count * plane;
  for (int64_t s = 0; s < count; ++s) {
    Im2Col(input.data() + (first + s) * sample_in, in_channels_, height,
           width, kernel_size_, kernel_size_, stride_, padding_,
           patches->data() + s * plane * patches->cols());
  }

  // out[oc, s * plane + pos] = sum_k W[oc, k] * patches[s * plane + pos, k].
  t_channel_rows.Resize({out_channels_, n});
  Gemm(/*transpose_a=*/false, /*transpose_b=*/true, 1.0f, weight_, *patches,
       0.0f, &t_channel_rows);
  for (int64_t s = 0; s < count; ++s) {
    float* out_sample = output->data() + (first + s) * sample_out;
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_.at(oc);
      const float* src = t_channel_rows.data() + oc * n + s * plane;
      float* dst = out_sample + int64_t{oc} * plane;
      for (int64_t p = 0; p < plane; ++p) dst[p] = src[p] + b;
    }
  }
}

Tensor Conv2dLayer::Backward(const Tensor& output_grad) {
  CHECK(has_patches_.load(std::memory_order_relaxed))
      << name_ << ": Backward needs a training-mode Forward before it";
  const Shape& in_shape = cached_input_shape_;
  const int64_t batch = in_shape.dim(0);
  const int height = static_cast<int>(in_shape.dim(2));
  const int width = static_cast<int>(in_shape.dim(3));
  const int64_t plane = patches_.rows() / batch;
  const int64_t n = batch * plane;
  CHECK_EQ(output_grad.shape().dim(0), batch);
  CHECK_EQ(output_grad.shape().dim(1), out_channels_);
  CHECK_EQ(output_grad.size(), out_channels_ * n);

  // output_grad as {oc, batch * plane}: sample s in columns
  // [s * plane, (s + 1) * plane), the layout of the patches' rows.
  const float* grad = output_grad.data();
  const int64_t sample_out = int64_t{out_channels_} * plane;
  t_channel_rows.Resize({out_channels_, n});
  for (int64_t s = 0; s < batch; ++s) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* src = grad + s * sample_out + oc * plane;
      std::copy(src, src + plane, t_channel_rows.data() + oc * n + s * plane);
    }
  }

  // dW += G * patches. Gemm adds each k term straight into C, k ascending,
  // and k = batch * plane runs sample by sample, so this is exactly the
  // chain of one beta = 1 Gemm per sample.
  Gemm(/*transpose_a=*/false, /*transpose_b=*/false, 1.0f, t_channel_rows,
       patches_, 1.0f, &weight_grad_);
  // db: one float sum per sample and channel, added in sample order.
  for (int64_t s = 0; s < batch; ++s) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* src = grad + s * sample_out + oc * plane;
      float sum = 0.0f;
      for (int64_t p = 0; p < plane; ++p) sum += src[p];
      bias_grad_.at(oc) += sum;
    }
  }

  // dPatches = G^T * W, then col2im of each sample into its input grad.
  const int64_t patch_width = patches_.cols();
  t_patch_rows.Resize({n, patch_width});
  Gemm(/*transpose_a=*/true, /*transpose_b=*/false, 1.0f, t_channel_rows,
       weight_, 0.0f, &t_patch_rows);
  Tensor input_grad(in_shape);
  const int64_t sample_in = int64_t{in_channels_} * height * width;
  for (int64_t s = 0; s < batch; ++s) {
    Col2Im(t_patch_rows.data() + s * plane * patch_width, in_channels_,
           height, width, kernel_size_, kernel_size_, stride_, padding_,
           input_grad.data() + s * sample_in);
  }
  return input_grad;
}

void Conv2dLayer::CollectParams(std::vector<ParamRef>* params) {
  // CNTK convolution kernels expose the (small) kernel width as the first
  // tensor dimension, so per-column 1bitSGD sees columns of 1-3 elements;
  // this is the performance artefact analyzed in Section 3.2.
  params->push_back(
      ParamRef{name_ + "/K", &weight_, &weight_grad_,
               Shape({kernel_size_, kernel_size_, in_channels_,
                      out_channels_}),
               ParamKind::kConvolutional});
  params->push_back(ParamRef{name_ + "/b", &bias_, &bias_grad_,
                             Shape({out_channels_}), ParamKind::kBias});
}

Shape Conv2dLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 3);
  CHECK_EQ(input_shape.dim(0), in_channels_);
  const int out_h = ConvOutputSize(static_cast<int>(input_shape.dim(1)),
                                   kernel_size_, stride_, padding_);
  const int out_w = ConvOutputSize(static_cast<int>(input_shape.dim(2)),
                                   kernel_size_, stride_, padding_);
  return Shape({out_channels_, out_h, out_w});
}

}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "base/logging.h"
#include "base/simd/gemm.h"
#include "tensor/ops.h"

namespace lpsgd {

namespace {

// Copies n floats, eight at a time while it can. The runs copied here are
// short and of varying length; as a plain loop this costs less than the
// library call std::copy becomes.
inline void CopyShort(const float* src, int n, float* dst) {
  for (; n >= 8; n -= 8, src += 8, dst += 8) {
    for (int i = 0; i < 8; ++i) dst[i] = src[i];
  }
  for (int i = 0; i < n; ++i) dst[i] = src[i];
}

// Copies the {batch, channels, height, width} `input` into `padded`,
// {batch, channels, height + 2 * padding, width + 2 * padding}, with zero
// borders.
void PadImages(const Tensor& input, int padding, Tensor* padded) {
  const int64_t planes = input.shape().dim(0) * input.shape().dim(1);
  const int64_t height = input.shape().dim(2);
  const int64_t width = input.shape().dim(3);
  const int64_t padded_width = width + 2 * padding;
  const int64_t padded_plane = (height + 2 * padding) * padded_width;
  padded->Resize({input.shape().dim(0), input.shape().dim(1),
                  height + 2 * padding, padded_width});
  if (padding > 0) padded->SetZero();
  const float* src = input.data();
  for (int64_t p = 0; p < planes; ++p) {
    float* dst = padded->data() + p * padded_plane +
                 padding * padded_width + padding;
    for (int64_t y = 0; y < height; ++y, src += width, dst += padded_width) {
      std::copy(src, src + width, dst);
    }
  }
}

// A batch of zero-padded images, {batch, channels, height, width} with the
// padding included, and the im2col patches matrix of the convolution over
// them: {batch * plane, K}, K = channels * kernel * kernel, whose row
// s * plane + oy * out_w + ox is the window of output position (oy, ox) of
// sample s, entries e = (c, ky, kx) row-major. Every window lies inside
// the padded image, so no entry needs a bounds check: the padding zeros
// are read, not written. The two panel sources below pack blocks of that
// matrix without ever storing it.
class ImagePatches {
 public:
  // Up to kGemmNr consecutive positions, cut where the output row or the
  // sample changes. Under each entry, the positions of a run read `len`
  // floats `stride` apart, from base + the entry's offset.
  struct Run {
    const float* base;
    int lane;  // of the run's first position
    int len;
  };
  struct Span {
    Run runs[kGemmNr];
    int num_runs = 0;
  };

  ImagePatches(const Tensor& padded, int kernel, int stride)
      : images_(padded.data()),
        batch_(padded.shape().dim(0)),
        channels_(static_cast<int>(padded.shape().dim(1))),
        height_(static_cast<int>(padded.shape().dim(2))),
        width_(static_cast<int>(padded.shape().dim(3))),
        kernel_(kernel),
        stride_(stride),
        out_h_(ConvOutputSize(height_, kernel, stride, 0)),
        out_w_(ConvOutputSize(width_, kernel, stride, 0)) {}

  int64_t plane() const { return int64_t{out_h_} * out_w_; }
  int64_t positions() const { return batch_ * plane(); }
  int64_t patch_width() const { return int64_t{channels_} * kernel_ * kernel_; }

  // Positions [q0, q0 + count), count <= kGemmNr, as runs.
  void Split(int64_t q0, int64_t count, Span* span) const {
    span->num_runs = 0;
    for (int64_t lane = 0; lane < count;) {
      const int64_t q = q0 + lane;
      const int64_t s = q / plane();
      const int pos = static_cast<int>(q - s * plane());
      const int oy = pos / out_w_;
      const int ox = pos - oy * out_w_;
      const int len =
          static_cast<int>(std::min<int64_t>(out_w_ - ox, count - lane));
      const int64_t sample = s * channels_ * int64_t{height_} * width_;
      span->runs[span->num_runs++] = {
          images_ + sample + (int64_t{oy} * width_ + ox) * stride_,
          static_cast<int>(lane), len};
      lane += len;
    }
  }

  // Caffe's im2col rows over one span of `count` positions: for entries
  // e0 + e, e < entries <= kGemmPanelKAlongK, out[e * kGemmNr + lane] is
  // the entry of the span's position `lane`, and lanes count..kGemmNr-1
  // are zero. Run by run, so each inner loop copies one run's length.
  void PackRows(const Span& span, int64_t count, int64_t e0, int64_t entries,
                float* out) const {
    // Where entry e0 + e sits in a window, relative to its top-left float.
    int64_t offsets[kGemmPanelKAlongK];
    int c = static_cast<int>(e0 / (int64_t{kernel_} * kernel_));
    int ky = static_cast<int>(e0 / kernel_ % kernel_);
    int kx = static_cast<int>(e0 % kernel_);
    for (int64_t e = 0; e < entries; ++e) {
      offsets[e] = (int64_t{c} * height_ + ky) * width_ + kx;
      if (++kx == kernel_) {
        kx = 0;
        if (++ky == kernel_) {
          ky = 0;
          ++c;
        }
      }
    }
    for (int r = 0; r < span.num_runs; ++r) {
      const Run& run = span.runs[r];
      float* dst = out + run.lane;
      for (int64_t e = 0; e < entries; ++e, dst += kGemmNr) {
        const float* src = run.base + offsets[e];
        if (stride_ == 1) {
          CopyShort(src, run.len, dst);
        } else {
          for (int i = 0; i < run.len; ++i, src += stride_) dst[i] = *src;
        }
      }
    }
    if (count == kGemmNr) return;
    for (int64_t e = 0; e < entries; ++e) {
      std::fill(out + e * kGemmNr + count, out + (e + 1) * kGemmNr, 0.0f);
    }
  }

 private:
  const float* images_;
  int64_t batch_;
  int channels_;
  int height_;
  int width_;
  int kernel_;
  int stride_;
  int out_h_;
  int out_w_;
};

// op(B) = patches^T, K x positions: the forward product W * patches^T. A
// strip is kGemmNr consecutive positions, and its k-rows are their im2col
// rows, read along k.
class ImagePatchColumns final : public GemmPanelSource {
 public:
  explicit ImagePatchColumns(const ImagePatches& patches)
      : patches_(patches) {}
  int64_t rows() const override { return patches_.patch_width(); }
  int64_t cols() const override { return patches_.positions(); }
  int64_t panel_k() const override { return kGemmPanelKAlongK; }
  void Pack(int64_t p0, int64_t kc, int64_t j0, int64_t nc,
            float* out) const override {
    ImagePatches::Span span;
    for (int64_t jr = 0; jr < nc; jr += kGemmNr) {
      const int64_t nr = std::min(kGemmNr, nc - jr);
      patches_.Split(j0 + jr, nr, &span);
      patches_.PackRows(span, nr, p0, kc, out + jr * kc);
    }
  }

 private:
  const ImagePatches& patches_;
};

// op(B) = patches, positions x K: the weight gradient G * patches. A
// panel's k-rows are kGemmPanelKAlongJ consecutive positions, whose
// patches are split across the strips. Each strip is the kGemmNr x kGemmNr
// transpose of the im2col rows of its entries, read along j.
class ImagePatchRows final : public GemmPanelSource {
 public:
  explicit ImagePatchRows(const ImagePatches& patches)
      : patches_(patches),
        pack_transposed_(ActiveGemmKernels().pack_transposed) {}
  int64_t rows() const override { return patches_.positions(); }
  int64_t cols() const override { return patches_.patch_width(); }
  int64_t panel_k() const override { return kGemmPanelKAlongJ; }
  void Pack(int64_t p0, int64_t kc, int64_t j0, int64_t nc,
            float* out) const override {
    ImagePatches::Span span;
    patches_.Split(p0, kc, &span);
    alignas(64) float block[kGemmNr * kGemmNr];
    for (int64_t jr = 0; jr < nc; jr += kGemmNr) {
      const int64_t nr = std::min(kGemmNr, nc - jr);
      patches_.PackRows(span, kc, j0 + jr, nr, block);
      // Zero rows past nr transpose into the strip's zero padding, and a
      // full block takes the kernel's vector path.
      std::fill(block + nr * kGemmNr, block + kGemmNr * kGemmNr, 0.0f);
      pack_transposed_(block, kGemmNr, kGemmNr, kc, out + jr * kc);
    }
  }

 private:
  const ImagePatches& patches_;
  decltype(GemmKernels::pack_transposed) pack_transposed_;
};

// Per-thread scratch for the matrices that live for one call only. Each
// grows to the largest size its thread has needed and is then reused.
// {out_c, batch * plane}: Forward's Gemm output, Backward's output grad.
thread_local Tensor t_channel_rows;
// An eval Forward's padded input.
thread_local Tensor t_padded_input;
// {out_c, plane}: one sample's output grad, for its input-grad Gemm.
thread_local Tensor t_sample_grad;
// {plane, K}: one sample's patch grads.
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

  has_cached_input_.store(training, std::memory_order_relaxed);
  Tensor* padded = training ? &cached_input_ : &t_padded_input;
  PadImages(input, padding_, padded);

  // out[oc, s * plane + pos] = sum_k W[oc, k] * patches[s * plane + pos, k].
  const ImagePatches patches(*padded, kernel_size_, stride_);
  const int64_t plane = patches.plane();
  const int64_t n = batch * plane;
  t_channel_rows.Resize({out_channels_, n});
  Gemm(/*transpose_a=*/false, 1.0f, weight_, ImagePatchColumns(patches), 0.0f,
       &t_channel_rows);

  Tensor output(Shape({batch, out_channels_, out_h, out_w}));
  const int64_t sample_out = int64_t{out_channels_} * plane;
  for (int64_t s = 0; s < batch; ++s) {
    float* out_sample = output.data() + s * sample_out;
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float b = bias_.at(oc);
      const float* src = t_channel_rows.data() + oc * n + s * plane;
      float* dst = out_sample + int64_t{oc} * plane;
      for (int64_t p = 0; p < plane; ++p) dst[p] = src[p] + b;
    }
  }
  return output;
}

Tensor Conv2dLayer::Backward(const Tensor& output_grad) {
  CHECK(has_cached_input_.load(std::memory_order_relaxed))
      << name_ << ": Backward needs a training-mode Forward before it";
  const int64_t batch = cached_input_.shape().dim(0);
  const int height =
      static_cast<int>(cached_input_.shape().dim(2)) - 2 * padding_;
  const int width =
      static_cast<int>(cached_input_.shape().dim(3)) - 2 * padding_;
  const ImagePatches patches(cached_input_, kernel_size_, stride_);
  const int64_t plane = patches.plane();
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
  Gemm(/*transpose_a=*/false, 1.0f, t_channel_rows, ImagePatchRows(patches),
       1.0f, &weight_grad_);
  // db: one float sum per sample and channel, added in sample order.
  for (int64_t s = 0; s < batch; ++s) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* src = grad + s * sample_out + oc * plane;
      float sum = 0.0f;
      for (int64_t p = 0; p < plane; ++p) sum += src[p];
      bias_grad_.at(oc) += sum;
    }
  }

  // Per sample: dPatches = G_s^T * W, then col2im into its input grad.
  // Every dPatches element is its own dot product over out_c, so taking
  // the samples one at a time changes no bit.
  Tensor input_grad(Shape({batch, in_channels_, height, width}));
  const int64_t sample_in = int64_t{in_channels_} * height * width;
  t_sample_grad.Resize({out_channels_, plane});
  t_patch_rows.Resize({plane, patches.patch_width()});
  for (int64_t s = 0; s < batch; ++s) {
    std::copy(grad + s * sample_out, grad + (s + 1) * sample_out,
              t_sample_grad.data());
    Gemm(/*transpose_a=*/true, /*transpose_b=*/false, 1.0f, t_sample_grad,
         weight_, 0.0f, &t_patch_rows);
    Col2Im(t_patch_rows.data(), in_channels_, height, width, kernel_size_,
           kernel_size_, stride_, padding_, input_grad.data() + s * sample_in);
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

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "base/simd/gemm.h"

namespace lpsgd {

namespace {

// Gemm's blocking. op(B) comes from a GemmPanelSource, whose panels of
// kGemmPanelFloats (128 KiB) are visited in ascending k so every C element
// accumulates its k terms in order. A panel is packed once into
// kGemmNr-wide strips stored k-major, and then stays in L2 while every row
// of op(A) runs over it: one row's nonzero alpha * a_ik are packed, and
// the micro-kernel walks them along each strip with a kGemmNr-wide tile of
// C in registers. A source packs its storage a row at a time, so each
// panel is long along those rows: dense B's run along j, and a 4 KiB row
// of B streams whole; dense B^T's run along k. The buffers are fixed-size
// thread-locals: Gemm never allocates.
static_assert(kGemmPanelFloats / kGemmPanelKAlongJ % kGemmNr == 0 &&
              kGemmPanelFloats / kGemmPanelKAlongK % kGemmNr == 0);

constexpr int64_t kMaxPanelK = std::max(kGemmPanelKAlongJ, kGemmPanelKAlongK);

alignas(64) thread_local float t_b_panel[kGemmPanelFloats];
alignas(64) thread_local float t_a_values[kMaxPanelK];
thread_local int32_t t_a_index[kMaxPanelK];

// Row-major B (row stride ldb), read along its rows.
class DenseB final : public GemmPanelSource {
 public:
  explicit DenseB(const Tensor& b) : b_(b) {}
  int64_t rows() const override { return b_.rows(); }
  int64_t cols() const override { return b_.cols(); }
  int64_t panel_k() const override { return kGemmPanelKAlongJ; }
  void Pack(int64_t p0, int64_t kc, int64_t j0, int64_t nc,
            float* out) const override {
    const int64_t ldb = b_.cols();
    for (int64_t k = 0; k < kc; ++k) {
      const float* row = b_.data() + (p0 + k) * ldb + j0;
      for (int64_t j = 0; j < nc; j += kGemmNr) {
        float* dst = out + j * kc + k * kGemmNr;
        const int64_t cols = std::min(kGemmNr, nc - j);
        std::copy(row + j, row + j + cols, dst);
        std::fill(dst + cols, dst + kGemmNr, 0.0f);
      }
    }
  }

 private:
  const Tensor& b_;
};

// op(B) = B^T of row-major B: each strip is a transposing copy of kGemmNr
// rows of B, read along k.
class DenseBt final : public GemmPanelSource {
 public:
  explicit DenseBt(const Tensor& b)
      : b_(b), pack_transposed_(ActiveGemmKernels().pack_transposed) {}
  int64_t rows() const override { return b_.cols(); }
  int64_t cols() const override { return b_.rows(); }
  int64_t panel_k() const override { return kGemmPanelKAlongK; }
  void Pack(int64_t p0, int64_t kc, int64_t j0, int64_t nc,
            float* out) const override {
    const int64_t ldb = b_.cols();
    for (int64_t jr = 0; jr < nc; jr += kGemmNr) {
      pack_transposed_(b_.data() + (j0 + jr) * ldb + p0, ldb,
                       std::min(kGemmNr, nc - jr), kc, out + jr * kc);
    }
  }

 private:
  const Tensor& b_;
  decltype(GemmKernels::pack_transposed) pack_transposed_;
};

// Packs row i of op(A), k-range [p0, p0 + kc): the products alpha * a_ik
// that are not zero (either sign; NaN is kept), k ascending, with their
// panel-relative k. Dropping the zeros is Gemm's skip rule. Returns how
// many were packed.
int64_t PackARow(bool transpose_a, float alpha, const float* ad, int64_t lda,
                 int64_t i, int64_t p0, int64_t kc, float* values,
                 int32_t* index) {
  const float* src = transpose_a ? ad + p0 * lda + i : ad + i * lda + p0;
  const int64_t step = transpose_a ? lda : 1;
  int64_t count = 0;
  for (int64_t k = 0; k < kc; ++k) {
    const float aik = alpha * src[k * step];
    if (aik == 0.0f) continue;
    values[count] = aik;
    index[count] = static_cast<int32_t>(k);
    ++count;
  }
  return count;
}

}  // namespace

void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c) {
  if (transpose_b) {
    Gemm(transpose_a, alpha, a, DenseBt(b), beta, c);
  } else {
    Gemm(transpose_a, alpha, a, DenseB(b), beta, c);
  }
}

void Gemm(bool transpose_a, float alpha, const Tensor& a,
          const GemmPanelSource& b, float beta, Tensor* c) {
  const int64_t m = transpose_a ? a.cols() : a.rows();
  const int64_t k = transpose_a ? a.rows() : a.cols();
  const int64_t n = b.cols();
  CHECK_EQ(k, b.rows()) << "Gemm inner dimensions";
  CHECK_EQ(c->rows(), m);
  CHECK_EQ(c->cols(), n);

  float* cd = c->data();
  if (k == 0) {
    // No panel runs, so beta is applied here rather than by the kernel.
    if (beta == 0.0f) {
      std::fill(cd, cd + m * n, 0.0f);
    } else if (beta != 1.0f) {
      for (int64_t i = 0; i < m * n; ++i) cd[i] *= beta;
    }
    return;
  }

  const GemmKernels& kernels = ActiveGemmKernels();
  const float* ad = a.data();
  const int64_t lda = a.cols();

  const int64_t panel_k = b.panel_k();
  CHECK(panel_k == kGemmPanelKAlongJ || panel_k == kGemmPanelKAlongK);
  const int64_t panel_n = kGemmPanelFloats / panel_k;
  for (int64_t jc = 0; jc < n; jc += panel_n) {
    const int64_t nc = std::min(panel_n, n - jc);
    for (int64_t pc = 0; pc < k; pc += panel_k) {
      const int64_t kc = std::min(panel_k, k - pc);
      // The first k-panel scales C by beta as the kernel loads each tile.
      const float panel_beta = pc == 0 ? beta : 1.0f;
      b.Pack(pc, kc, jc, nc, t_b_panel);
      for (int64_t i = 0; i < m; ++i) {
        const int64_t count = PackARow(transpose_a, alpha, ad, lda, i, pc, kc,
                                       t_a_values, t_a_index);
        // Every update of the row skips, and beta 1 (an accumulating
        // weight gradient, say) leaves it as it is.
        if (count == 0 && panel_beta == 1.0f) continue;
        float* crow = cd + i * n + jc;
        for (int64_t jr = 0; jr < nc; jr += kGemmNr) {
          const float* strip = t_b_panel + jr * kc;
          const int64_t nr = std::min(kGemmNr, nc - jr);
          if (nr == kGemmNr) {
            kernels.micro_kernel(count, t_a_values, t_a_index, strip,
                                 panel_beta, crow + jr);
            continue;
          }
          // Edge tile: run the full-width kernel on a padded copy.
          float tile[kGemmNr] = {};
          std::copy(crow + jr, crow + jr + nr, tile);
          kernels.micro_kernel(count, t_a_values, t_a_index, strip,
                               panel_beta, tile);
          std::copy(tile, tile + nr, crow + jr);
        }
      }
    }
  }
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  CHECK_EQ(x.size(), y->size());
  const float* xd = x.data();
  float* yd = y->data();
  for (int64_t i = 0; i < x.size(); ++i) yd[i] += alpha * xd[i];
}

void Scale(float alpha, Tensor* x) {
  float* xd = x->data();
  for (int64_t i = 0; i < x->size(); ++i) xd[i] *= alpha;
}

void AddRowBroadcast(const Tensor& bias, Tensor* x) {
  CHECK_EQ(bias.size(), x->cols());
  const float* bd = bias.data();
  float* xd = x->data();
  const int64_t cols = x->cols();
  for (int64_t r = 0; r < x->rows(); ++r) {
    float* row = xd + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bd[c];
  }
}

void SumRowsTo(const Tensor& grad, Tensor* bias_grad) {
  CHECK_EQ(bias_grad->size(), grad.cols());
  bias_grad->SetZero();
  const float* gd = grad.data();
  float* bd = bias_grad->data();
  const int64_t cols = grad.cols();
  for (int64_t r = 0; r < grad.rows(); ++r) {
    const float* row = gd + r * cols;
    for (int64_t c = 0; c < cols; ++c) bd[c] += row[c];
  }
}

void SoftmaxRows(const Tensor& logits, Tensor* probs) {
  CHECK_EQ(logits.rows(), probs->rows());
  CHECK_EQ(logits.cols(), probs->cols());
  const int64_t cols = logits.cols();
  for (int64_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.data() + r * cols;
    float* out = probs->data() + r * cols;
    float max_logit = in[0];
    for (int64_t c = 1; c < cols; ++c) max_logit = std::max(max_logit, in[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - max_logit);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

namespace {

// Col2Im's body. A window row inside the image is a short contiguous run;
// with its width kFixedWidth known at compile time (3, for every 3x3
// kernel) it becomes a few adds instead of a loop of unknown length.
// kFixedWidth 0 reads the width from kernel_w. Both instantiations perform
// the same adds in the same order.
template <int kFixedWidth>
void Col2ImRows(const float* patches, int channels, int height, int width,
                int kernel_h, int kernel_w, int stride, int padding,
                float* image_grad) {
  const int kw = kFixedWidth > 0 ? kFixedWidth : kernel_w;
  const int out_h = ConvOutputSize(height, kernel_h, stride, padding);
  const int out_w = ConvOutputSize(width, kw, stride, padding);
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      const float* row = patches;
      patches += int64_t{channels} * kernel_h * kw;
      const int x0 = ox * stride - padding;
      const bool inside_x = x0 >= 0 && x0 + kw <= width;
      for (int ch = 0; ch < channels; ++ch) {
        float* plane = image_grad + int64_t{ch} * height * width;
        for (int ky = 0; ky < kernel_h; ++ky, row += kw) {
          const int iy = oy * stride + ky - padding;
          if (iy < 0 || iy >= height) continue;
          float* line = plane + int64_t{iy} * width;
          if (inside_x) {
            for (int kx = 0; kx < kw; ++kx) line[x0 + kx] += row[kx];
            continue;
          }
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = x0 + kx;
            if (ix >= 0 && ix < width) line[ix] += row[kx];
          }
        }
      }
    }
  }
}

}  // namespace

void Col2Im(const float* patches, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int padding,
            float* image_grad) {
  if (kernel_w == 3) {
    Col2ImRows<3>(patches, channels, height, width, kernel_h, kernel_w,
                  stride, padding, image_grad);
  } else {
    Col2ImRows<0>(patches, channels, height, width, kernel_h, kernel_w,
                  stride, padding, image_grad);
  }
}

int64_t ArgMaxRow(const Tensor& x, int64_t r) {
  const int64_t cols = x.cols();
  const float* row = x.data() + r * cols;
  int64_t best = 0;
  for (int64_t c = 1; c < cols; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

}  // namespace lpsgd

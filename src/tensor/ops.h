// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_OPS_H_
#define LPSGD_TENSOR_OPS_H_

#include <cstdint>

#include "base/simd/gemm.h"
#include "tensor/tensor.h"

namespace lpsgd {

// Dense linear algebra over the 2-D (rows x cols) view of tensors. All
// routines are single-threaded; a simulated GPU rank executes them
// sequentially and virtual time is charged separately by the cost model.

// Gemm's B operand: the k x n matrix op(B), as a source of packed panels.
// Gemm cuts op(B) into panels of panel_k() rows by kGemmPanelFloats /
// panel_k() columns, visited in ascending k, and has the source pack each
// into kGemmNr-wide strips stored k-major: strip s of the panel at rows
// [p0, p0 + kc) and columns [j0, j0 + nc) is out[s * kc * kGemmNr +
// k * kGemmNr + j] = op(B)[p0 + k][j0 + s * kGemmNr + j], with the columns
// past nc of the last strip zero. Every source of the same op(B) packs the
// same floats, so the source never changes a bit of C. The panel shape is
// a constant of the source kind: one that reads its storage along j takes
// kGemmPanelKAlongJ, one that reads along k kGemmPanelKAlongK.
class GemmPanelSource {
 public:
  virtual ~GemmPanelSource() = default;
  virtual int64_t rows() const = 0;  // k
  virtual int64_t cols() const = 0;  // n
  virtual int64_t panel_k() const = 0;
  virtual void Pack(int64_t p0, int64_t kc, int64_t j0, int64_t nc,
                    float* out) const = 0;
};

inline constexpr int64_t kGemmPanelFloats = 128 * 256;  // 128 KiB
inline constexpr int64_t kGemmPanelKAlongJ = 32;        // 32 x 1024
inline constexpr int64_t kGemmPanelKAlongK = 128;       // 128 x 256

// C = alpha * op(A) * op(B) + beta * C, where op(X) = X or X^T.
// Shapes (after op): A is m x k, B is k x n, C must be m x n. Dense B is
// packed along its rows and dense B^T along its columns.
void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

// The same product with op(B) supplied by `b`.
void Gemm(bool transpose_a, float alpha, const Tensor& a,
          const GemmPanelSource& b, float beta, Tensor* c);

// y += alpha * x (element count must match).
void Axpy(float alpha, const Tensor& x, Tensor* y);

// x *= alpha.
void Scale(float alpha, Tensor* x);

// Adds `bias` (length = cols of `x`) to every row of `x`.
void AddRowBroadcast(const Tensor& bias, Tensor* x);

// bias_grad[c] = sum over rows of grad(r, c). Overwrites `bias_grad`.
void SumRowsTo(const Tensor& grad, Tensor* bias_grad);

// Row-wise softmax: probs(r, :) = softmax(logits(r, :)). In-place allowed.
void SoftmaxRows(const Tensor& logits, Tensor* probs);

// col2im for 2-D convolution with square stride/padding semantics, over
// one sample: scatters `patches`, the {out_h * out_w, channels * kernel_h
// * kernel_w} row-major patch gradients, back onto the sample's {channels,
// height, width} image gradient, window row by window row in ascending
// position order. Padding positions are dropped. Accumulates into
// `image_grad` rather than overwriting it.
void Col2Im(const float* patches, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int padding,
            float* image_grad);

// Output spatial size for a convolution/pooling dimension.
inline int ConvOutputSize(int input, int kernel, int stride, int padding) {
  return (input + 2 * padding - kernel) / stride + 1;
}

// Returns the index of the maximum element of row `r` of `x`.
int64_t ArgMaxRow(const Tensor& x, int64_t r);

}  // namespace lpsgd

#endif  // LPSGD_TENSOR_OPS_H_

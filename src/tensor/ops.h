// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_TENSOR_OPS_H_
#define LPSGD_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace lpsgd {

// Dense linear algebra over the 2-D (rows x cols) view of tensors. All
// routines are single-threaded; a simulated GPU rank executes them
// sequentially and virtual time is charged separately by the cost model.

// C = alpha * op(A) * op(B) + beta * C, where op(X) = X or X^T.
// Shapes (after op): A is m x k, B is k x n, C must be m x n.
void Gemm(bool transpose_a, bool transpose_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

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

// im2col for 2-D convolution with square stride/padding semantics, over
// one sample. `image` points at its {channels, height, width} floats and
// `patches` at the {out_h * out_w, channels * kernel_h * kernel_w}
// row-major matrix it fills. Padding uses zeros. A batch is converted one
// sample at a time, each at its own offsets into the two buffers.
void Im2Col(const float* image, int channels, int height, int width,
            int kernel_h, int kernel_w, int stride, int padding,
            float* patches);

// Transpose of Im2Col: scatters one sample's patch gradients back onto its
// {channels, height, width} image gradient. Accumulates into `image_grad`
// rather than overwriting it.
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

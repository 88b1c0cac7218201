// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Explicit im2col, the reference that Conv2dLayer's implicit im2col (Gemm
// panels packed straight from the input) and Col2Im are checked against.
#ifndef LPSGD_TESTS_TENSOR_IM2COL_REFERENCE_H_
#define LPSGD_TESTS_TENSOR_IM2COL_REFERENCE_H_

#include <cstdint>

#include "tensor/ops.h"

namespace lpsgd {

// im2col for 2-D convolution with square stride/padding semantics, over
// one sample. `image` points at its {channels, height, width} floats and
// `patches` at the {out_h * out_w, channels * kernel_h * kernel_w}
// row-major matrix it fills: row oy * out_w + ox is the window of output
// position (oy, ox), (c, ky, kx) row-major, with zeros over the padding.
inline void Im2Col(const float* image, int channels, int height, int width,
                   int kernel_h, int kernel_w, int stride, int padding,
                   float* patches) {
  const int out_h = ConvOutputSize(height, kernel_h, stride, padding);
  const int out_w = ConvOutputSize(width, kernel_w, stride, padding);
  for (int oy = 0; oy < out_h; ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      for (int c = 0; c < channels; ++c) {
        for (int ky = 0; ky < kernel_h; ++ky) {
          for (int kx = 0; kx < kernel_w; ++kx) {
            const int iy = oy * stride + ky - padding;
            const int ix = ox * stride + kx - padding;
            const bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
            *patches++ =
                inside ? image[(int64_t{c} * height + iy) * width + ix] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace lpsgd

#endif  // LPSGD_TESTS_TENSOR_IM2COL_REFERENCE_H_

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_ONE_BIT_SGD_H_
#define LPSGD_QUANT_ONE_BIT_SGD_H_

#include <string>

#include "quant/codec.h"

namespace lpsgd {

// 1bitSGD (Seide et al., Algorithm 2): each element is replaced by the
// average of the same-signed elements of its chunk, one sign bit per
// element is transmitted together with the two averages (avg+, avg-), and
// the quantization error is carried into the next iteration (error
// feedback).
//
// This class is the stock CNTK variant, which chunks per *column* of the
// CNTK tensor view — columns have shape.rows() elements. On convolution
// kernels (rows = kernel width, 1-3) this sends ~2 floats per 1-3 gradient
// values: no compression, and a per-column kernel launch. That artefact is
// central to the paper's Section 3.2/5.2 analysis and is reproduced here
// deliberately.
class OneBitSgdCodec : public GradientCodec {
 public:
  explicit OneBitSgdCodec(bool error_feedback = true)
      : GradientCodec("one_bit_sgd", error_feedback) {}

  std::string Name() const override { return "1bitSGD"; }
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;
};

// 1bitSGD* (Section 3.2, "Reshaped 1bitSGD"): identical math, but the
// tensor is flattened and chunked into fixed-size buckets of consecutive
// elements, fixing the per-column artefact. Bucket size 64 preserves
// accuracy across the paper's networks.
class OneBitSgdReshapedCodec : public GradientCodec {
 public:
  explicit OneBitSgdReshapedCodec(int64_t bucket_size,
                                  bool error_feedback = true);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

  int64_t bucket_size() const { return bucket_size_; }

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;

  int64_t bucket_size_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_ONE_BIT_SGD_H_

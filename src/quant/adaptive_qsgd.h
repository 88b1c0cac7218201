// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_ADAPTIVE_QSGD_H_
#define LPSGD_QUANT_ADAPTIVE_QSGD_H_

#include <string>
#include <vector>

#include "quant/codec.h"

namespace lpsgd {

// QSGD with data-adaptive quantization levels, after ZipML (Zhang et al.,
// ICML 2017). Section 2.3 of the paper: "There are algorithms in which
// quantization levels are distributed to further minimize variance ... We
// implemented this for gradient but does not observe significant
// improvement." This codec reproduces that implementation: instead of s
// uniformly spaced magnitude levels, the levels are placed at the
// quantiles of the gradient's (normalized) magnitude distribution, which
// minimizes expected quantization variance for the observed distribution.
//
// Wire format per matrix: one fp32 max-norm scale per bucket, then the
// shared level table (s + 1 fp32 values in [0, 1], level 0 fixed at 0 and
// level s at 1), then `bits` bits per element (sign + level index), packed
// into 32-bit words. Rounding between adjacent levels is stochastic so the
// estimator stays unbiased.
class AdaptiveQsgdCodec : public GradientCodec {
 public:
  AdaptiveQsgdCodec(int bits, int64_t bucket_size, uint64_t seed);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

  int bits() const { return bits_; }

  // Exposed for testing: the level table computed for `grad` (normalized
  // magnitudes' quantiles; size level_count() + 1, first 0, last 1).
  std::vector<float> ComputeLevels(const float* grad, const Shape& shape,
                                   const std::vector<float>& scales) const;

  uint32_t level_count() const { return level_count_; }

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;

  // Fills workspace->levels (using workspace->sample / trial as scratch)
  // with the level table for `grad`; the allocation-free core the public
  // ComputeLevels wraps.
  void ComputeLevelsInto(const float* grad, const Shape& shape,
                         const float* scales,
                         CodecWorkspace* workspace) const;

  int bits_;
  int64_t bucket_size_;
  uint64_t seed_;
  uint32_t level_count_;  // s: highest level index
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_ADAPTIVE_QSGD_H_

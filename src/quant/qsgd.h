// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_QSGD_H_
#define LPSGD_QUANT_QSGD_H_

#include <string>
#include <vector>

#include "quant/codec.h"

namespace lpsgd {

// QSGD (Alistarh et al.): stochastic quantization to a small set of
// levels. The gradient is flattened, split into buckets of consecutive
// elements (Section 3.2.2: bucketing controls quantization variance), and
// each bucket is scaled by its 2-norm or max-norm; element magnitudes are
// stochastically rounded to the nearest of s uniformly-spaced levels so the
// quantizer is unbiased: E[Q(v)] = v.
//
// Wire format: one fp32 scale per bucket, then `bits` bits per element
// packed into 32-bit words. With the sign-magnitude scheme, each field is
// 1 sign bit + (bits-1) magnitude bits (s = 2^(bits-1) - 1 levels); with
// the symmetric scheme, each field indexes one of 2^bits - 1 endpoints of
// equal sub-intervals of [-scale, +scale].
class QsgdCodec : public GradientCodec {
 public:
  QsgdCodec(int bits, int64_t bucket_size, QsgdNorm norm,
            QsgdLevelScheme levels, uint64_t seed);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  void EncodeRange(const float* grad, const Shape& shape,
                   uint64_t stochastic_tag, std::vector<float>* error,
                   int64_t begin, int64_t end, CodecWorkspace* workspace,
                   uint8_t* blob) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

  int bits() const { return bits_; }
  int64_t bucket_size() const { return bucket_size_; }

 private:
  int bits_;
  int64_t bucket_size_;
  QsgdNorm norm_;
  QsgdLevelScheme levels_;
  uint64_t seed_;
  // Number of magnitude levels s (sign-magnitude) or total levels minus
  // one (symmetric).
  uint32_t level_count_;
  // Sign-magnitude decode table: magnitudes_[m] = m / s, the identical
  // double division the flat decode loop once did per element, built once
  // so every DecodeRange call shares it.
  std::vector<double> magnitudes_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_QSGD_H_

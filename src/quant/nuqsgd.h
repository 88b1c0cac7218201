// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_NUQSGD_H_
#define LPSGD_QUANT_NUQSGD_H_

#include <string>
#include <vector>

#include "quant/codec.h"

namespace lpsgd {

// NUQSGD (Ramezani-Kebrya et al., JMLR 2021): QSGD's skeleton with
// nonuniformly spaced quantization levels. Normalized magnitudes are
// stochastically rounded to the exponential grid
//   l_0 = 0,  l_j = 2^(j - s)  for j = 1..s,  s = 2^(bits-1) - 1,
// which matches the empirical distribution of normalized gradient
// components (most mass near zero) far better than QSGD's uniform grid and
// carries a strictly tighter variance bound at the same bit budget.
// Buckets are scaled by their 2-norm, the norm the NUQSGD analysis
// assumes.
//
// Wire format: identical layout to QSGD sign-magnitude — one fp32 scale
// per bucket, then `bits`-bit fields (1 sign bit + (bits-1) level-index
// bits) packed into 32-bit words, then the trailing integrity word. Only
// the meaning of the level index differs.
class NuqsgdCodec : public GradientCodec {
 public:
  NuqsgdCodec(int bits, int64_t bucket_size, uint64_t seed);

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
  uint64_t seed_;
  uint32_t level_count_;  // s: number of nonzero levels
  // The exponential grid levels_[0] = 0, levels_[j] = 2^(j - s), built
  // once and shared by EncodeRange and DecodeRange.
  std::vector<double> levels_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_NUQSGD_H_

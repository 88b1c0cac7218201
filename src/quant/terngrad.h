// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_TERNGRAD_H_
#define LPSGD_QUANT_TERNGRAD_H_

#include <string>

#include "quant/codec.h"

namespace lpsgd {

// TernGrad (Wen et al., NeurIPS 2017): each gradient component is
// stochastically rounded to one of three values {-s, 0, +s}, where s is
// the max-magnitude scalar of its chunk. The rounding is unbiased:
// P(±s) = |g| / s, so E[Q(g)] = g. With bucket_size <= 0 the whole matrix
// shares one scalar (the paper's layer-wise scaling); a positive bucket
// size scales runs of consecutive elements independently, the same
// variance-control knob QSGD's bucketing provides.
//
// Gradient clipping (the paper's Section 5 accuracy fix): with clip > 0,
// magnitudes are clamped at clip * sigma before scaling, where sigma is
// the chunk's RMS. Clipping caps the scalar, so the rare huge component no
// longer starves every other component's signal.
//
// Wire format: one fp32 scalar per chunk, then a 2-bit sign-magnitude
// field per element (1 sign bit + 1 magnitude bit) packed into 32-bit
// words, then the trailing integrity word.
class TernGradCodec : public GradientCodec {
 public:
  // `bucket_size` <= 0 means one scalar per matrix; `clip` <= 0 disables
  // clipping.
  TernGradCodec(int64_t bucket_size, double clip, uint64_t seed);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

  int64_t bucket_size() const { return bucket_size_; }
  double clip() const { return clip_; }

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;

  // Elements covered by chunk `b` of an n-element gradient.
  int64_t ChunkLength(int64_t n) const;

  int64_t bucket_size_;
  double clip_;
  uint64_t seed_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_TERNGRAD_H_

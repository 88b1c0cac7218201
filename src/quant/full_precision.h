// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_FULL_PRECISION_H_
#define LPSGD_QUANT_FULL_PRECISION_H_

#include <string>

#include "quant/codec.h"

namespace lpsgd {

// Identity codec: 32-bit floats on the wire. The full-precision baseline
// of every experiment.
class FullPrecisionCodec : public GradientCodec {
 public:
  FullPrecisionCodec() : GradientCodec("full_precision") {}

  std::string Name() const override { return "32bit"; }
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

}  // namespace lpsgd

#endif  // LPSGD_QUANT_FULL_PRECISION_H_

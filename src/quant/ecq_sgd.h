// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_ECQ_SGD_H_
#define LPSGD_QUANT_ECQ_SGD_H_

#include <string>
#include <vector>

#include "quant/codec.h"

namespace lpsgd {

// ECQ-SGD (Wu et al., ICML 2018): error-compensated quantized SGD. Each
// step quantizes the error-corrected gradient v = g + e with QSGD's
// bucketed sign-magnitude quantizer, then carries the fresh quantization
// residual e' = v - Q(v) into the next step through the same per-
// (rank, matrix) error-feedback buffer contract 1bitSGD and TopK use.
// Compensation bounds the accumulated quantization error, so aggressive
// (low-bit) settings that diverge under plain QSGD stay close to the
// full-precision trajectory.
//
// Wire format: identical to QSGD sign-magnitude — one fp32 max-norm scale
// per bucket, `bits`-bit fields packed into 32-bit words, trailing
// integrity word. The compensation lives entirely in the caller-owned
// error buffer; the wire carries no extra state.
class EcqSgdCodec : public GradientCodec {
 public:
  EcqSgdCodec(int bits, int64_t bucket_size, bool error_feedback,
              uint64_t seed);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  bool UsesErrorFeedback() const override { return error_feedback_; }
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
  bool error_feedback_;
  uint64_t seed_;
  uint32_t level_count_;  // s: number of magnitude levels
  // Dequantize table magnitudes_[m] = m / s, shared by the encoder's
  // residual refresh and DecodeRange so both see bit-identical values.
  std::vector<double> magnitudes_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_ECQ_SGD_H_

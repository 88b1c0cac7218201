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
// stochastically rounded to the nearest of s levels so the quantizer is
// unbiased: E[Q(v)] = v.
//
// Two related works are settings of the same codec, selected by the spec's
// kind; each adds one thing on top of the QSGD skeleton:
//  * kNuqsgd — NUQSGD (Ramezani-Kebrya et al., JMLR 2021): the nonuniform
//    grid l_0 = 0, l_j = 2^(j - s) for j = 1..s, which matches the mass of
//    normalized gradient components near zero and has a tighter variance
//    bound at the same bit budget. Always L2-scaled and sign-magnitude.
//  * kEcqSgd — ECQ-SGD (Wu et al., ICML 2018): max-norm sign-magnitude
//    QSGD with error feedback, which GradientCodec::EncodeRange applies:
//    it quantizes v = g + e and carries v - Q(v) in the caller-owned
//    per-(rank, matrix) error buffer, as for 1bitSGD and TopK. The wire
//    carries no extra state.
//
// Wire format (every kind): one fp32 scale per bucket, then `bits` bits per
// element packed into 32-bit words, then the trailing integrity word. With
// the sign-magnitude scheme, each field is 1 sign bit + (bits-1) level-
// index bits (s = 2^(bits-1) - 1 levels); with the symmetric scheme (plain
// QSGD only), each field indexes one of 2^bits - 1 endpoints of equal
// sub-intervals of [-scale, +scale].
class QsgdCodec : public GradientCodec {
 public:
  // `spec.kind` must be kQsgd, kNuqsgd or kEcqSgd; bits, bucket_size,
  // seed, and (per kind) norm, levels and error_feedback are read.
  explicit QsgdCodec(const CodecSpec& spec);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;

  int bits() const { return bits_; }
  int64_t bucket_size() const { return bucket_size_; }

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;

  CodecKind kind_;
  int bits_;
  int64_t bucket_size_;
  QsgdNorm norm_;
  QsgdLevelScheme levels_;
  uint64_t seed_;
  // Number of magnitude levels s (sign-magnitude) or total levels minus
  // one (symmetric).
  uint32_t level_count_;
  // Sign-magnitude level table, built once and shared by every
  // QuantizeRange (NUQSGD's bracket search) and DecodeRange: m / s on the
  // uniform grid — the identical double division the flat decode loop once
  // did per element — or 0, 2^(j - s) for NUQSGD.
  std::vector<double> magnitudes_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_QSGD_H_

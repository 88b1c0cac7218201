// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_TOPK_H_
#define LPSGD_QUANT_TOPK_H_

#include <string>

#include "quant/codec.h"

namespace lpsgd {

// Top-K gradient sparsification (Aji & Heafield, EMNLP 2017), the
// alternative compression strategy the paper evaluates in Section 7: only
// the `density` fraction of components with the largest magnitudes are
// transmitted (as index/value pairs); the rest accumulate locally in an
// error-feedback buffer until they grow large enough to be sent.
//
// Kept set: the k largest magnitudes, ties at the k-th going to the lowest
// indices, NaN ranked above +inf, and -0.0f sent as +0.0f (DESIGN.md
// Section 4, "Sparse wire format").
//
// Wire format: one uint32 count, then the kept indices bit-packed at
// IndexBitWidth(n) bits each in strictly increasing order, then count fp32
// values in index order. Packing the indices (instead of a raw uint32
// each) trims the per-component overhead, but the cost structure the paper
// points to stands: at the >10% densities it observed Inception-class nets
// need, the traffic reduction over fp32 is well short of QSGD's 8x at
// 4 bits.
//
// TopK is the repo's sparse codec: SparseCount() is nonzero and
// DecodeSparse() exposes the (index, value) runs directly, so aggregators
// can scatter-add k components per rank instead of densifying n.
class TopKCodec : public GradientCodec {
 public:
  // `density` in (0, 1]: fraction of components transmitted per matrix
  // (at least one).
  explicit TopKCodec(double density, bool error_feedback = true);

  std::string Name() const override;
  int64_t EncodedSizeBytes(const Shape& shape) const override;
  int64_t NumChunks(const Shape& shape) const override;
  int64_t RangeAlignment(const Shape& shape) const override;
  Status DecodeRange(const uint8_t* blob, const Shape& shape, int64_t begin,
                     int64_t end, CodecWorkspace* workspace,
                     float* out) const override;
  int64_t SparseCount(const Shape& shape) const override;
  Status DecodeSparse(const uint8_t* bytes, int64_t num_bytes,
                      const Shape& shape, CodecWorkspace* workspace,
                      uint32_t* indices, float* values) const override;

  double density() const { return density_; }

  // Number of components kept for an n-element gradient (>= 1).
  int64_t KeptCount(int64_t n) const;

 private:
  void QuantizeRange(const float* grad, const Shape& shape,
                     uint64_t stochastic_tag, int64_t begin, int64_t end,
                     CodecWorkspace* workspace, uint8_t* blob) const override;

  // Validates a blob's framing fields (count, index run) and copies out
  // its sparse form; DataLoss, with the outputs unspecified, on a
  // malformed payload. Shared by DecodeSparse and DecodeRange.
  Status ParseSparse(const uint8_t* blob, int64_t n, uint32_t* indices,
                     float* values) const;

  double density_;
};

}  // namespace lpsgd

#endif  // LPSGD_QUANT_TOPK_H_

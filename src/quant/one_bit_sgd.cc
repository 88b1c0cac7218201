// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/one_bit_sgd.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/thread_annotations.h"
#include "base/strings.h"
#include "quant/registry.h"
#include "quant/simd_kernels.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

// Computes avg+ / avg- over the `count` values values[0], values[stride],
// values[2 * stride], ...
//
// Shared by both 1bitSGD variants; only the chunking differs: a column
// (stride = cols) or a bucket (stride 1). With error feedback the values
// are the corrected c = g + e that GradientCodec::EncodeRange staged.
//
// Branch-free: random signs would mispredict a sign branch about half the
// time, and GCC compiles a ternary back into one, so both sums take every
// value through a bit mask (v or +0.0f). A NaN fails v >= 0 and lands in
// the negative sum, as the old branch sent it. The sums match the branchy
// fold bit for bit: adding +0.0 changes only -0.0, and neither sum can hold
// -0.0 (the positive one starts at +0.0 and adds v >= 0, where
// +0.0 + -0.0 = +0.0; the negative one adds values of one sign).
void ChunkAverages(const float* values, int64_t count, int64_t stride,
                   float* avg_pos, float* avg_neg) {
  double sum_pos = 0.0, sum_neg = 0.0;
  int64_t n_pos = 0;
  for (int64_t i = 0; i < count; ++i) {
    const float v = values[i * stride];
    const uint32_t is_pos = static_cast<uint32_t>(v >= 0.0f);
    const uint32_t pos_mask = 0u - is_pos;
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    sum_pos += std::bit_cast<float>(bits & pos_mask);
    sum_neg += std::bit_cast<float>(bits & ~pos_mask);
    n_pos += is_pos;
  }
  const int64_t n_neg = count - n_pos;
  *avg_pos = n_pos > 0 ? static_cast<float>(sum_pos / n_pos) : 0.0f;
  *avg_neg = n_neg > 0 ? static_cast<float>(sum_neg / n_neg) : 0.0f;
}

}  // namespace

int64_t OneBitSgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t rows = shape.rows();
  const int64_t cols = shape.cols();
  const int64_t words_per_col = (rows + 31) / 32;
  return cols * (2 * static_cast<int64_t>(sizeof(float)) +
                 words_per_col * static_cast<int64_t>(sizeof(uint32_t))) +
         codec_internal::kWireChecksumBytes;
}

int64_t OneBitSgdCodec::NumChunks(const Shape& shape) const {
  return shape.cols();
}

int64_t OneBitSgdCodec::RangeAlignment(const Shape& /*shape*/) const {
  // Column-major chunks interleave with the row-major flat order.
  return 0;
}

LPSGD_HOT_PATH
void OneBitSgdCodec::QuantizeRange(const float* grad, const Shape& shape,
                                   uint64_t /*stochastic_tag*/, int64_t begin,
                                   int64_t end, CodecWorkspace* /*workspace*/,
                                   uint8_t* blob) const {
  const int64_t rows = shape.rows();
  const int64_t cols = shape.cols();
  CHECK_EQ(begin, 0);
  CHECK_EQ(end, rows * cols);

  float* scales = MutableFloatsAt(blob, 0);  // 2 per column
  const int64_t words_per_col = (rows + 31) / 32;
  uint32_t* bits =
      MutableWordsAt(blob, 2 * cols * static_cast<int64_t>(sizeof(float)));
  std::memset(bits, 0,
              static_cast<size_t>(cols * words_per_col) * sizeof(uint32_t));

  for (int64_t c = 0; c < cols; ++c) {
    // Column c: elements at flat index r * cols + c.
    float avg_pos = 0.0f, avg_neg = 0.0f;
    ChunkAverages(grad + c, rows, cols, &avg_pos, &avg_neg);
    scales[2 * c] = avg_pos;
    scales[2 * c + 1] = avg_neg;
    for (int64_t r = 0; r < rows; ++r) {
      bits[c * words_per_col + r / 32] |=
          static_cast<uint32_t>(grad[r * cols + c] >= 0.0f) << (r & 31);
    }
  }
}

LPSGD_HOT_PATH
Status OneBitSgdCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                                   int64_t /*begin*/, int64_t /*end*/,
                                   CodecWorkspace* /*workspace*/,
                                   float* out) const {
  const int64_t rows = shape.rows();
  const int64_t cols = shape.cols();
  const float* scales = FloatsAt(blob, 0);
  const int64_t words_per_col = (rows + 31) / 32;
  const uint32_t* bits =
      WordsAt(blob, 2 * cols * static_cast<int64_t>(sizeof(float)));

  for (int64_t c = 0; c < cols; ++c) {
    const float avg_pos = scales[2 * c];
    const float avg_neg = scales[2 * c + 1];
    const uint32_t* col_bits = bits + c * words_per_col;
    for (int64_t r = 0; r < rows; ++r) {
      out[r * cols + c] =
          quant_simd::OneBitValue(col_bits, r, avg_pos, avg_neg);
    }
  }
  return OkStatus();
}

OneBitSgdReshapedCodec::OneBitSgdReshapedCodec(int64_t bucket_size,
                                               bool error_feedback)
    : GradientCodec("one_bit_sgd_reshaped", error_feedback),
      bucket_size_(bucket_size) {
  CHECK_GT(bucket_size, 0);
}

std::string OneBitSgdReshapedCodec::Name() const {
  return StrCat("1bitSGD* (b=", bucket_size_, ")");
}

int64_t OneBitSgdReshapedCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t buckets = (n + bucket_size_ - 1) / bucket_size_;
  return buckets * 2 * static_cast<int64_t>(sizeof(float)) +
         ((n + 31) / 32) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

int64_t OneBitSgdReshapedCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t OneBitSgdReshapedCodec::RangeAlignment(const Shape& /*shape*/) const {
  return codec_internal::BucketRangeAlignment(bucket_size_, /*bits=*/1);
}

LPSGD_HOT_PATH
void OneBitSgdReshapedCodec::QuantizeRange(const float* grad,
                                           const Shape& shape,
                                           uint64_t /*stochastic_tag*/,
                                           int64_t begin, int64_t end,
                                           CodecWorkspace* /*workspace*/,
                                           uint8_t* blob) const {
  const int64_t buckets = NumChunks(shape);
  float* scales = MutableFloatsAt(blob, 0);  // 2 per bucket
  uint32_t* bits = MutableWordsAt(
      blob, 2 * buckets * static_cast<int64_t>(sizeof(float)));
  // Buckets don't align with word boundaries, so zero the range's sign
  // words up front and OR bits in below; an aligned range owns whole
  // words.
  std::memset(bits + begin / 32, 0,
              static_cast<size_t>((end + 31) / 32 - begin / 32) *
                  sizeof(uint32_t));

  // Averages first, then the sign bits via the runtime-dispatched kernel
  // table.
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);
    const float* values = grad + (bucket_begin - begin);
    float avg_pos = 0.0f, avg_neg = 0.0f;
    ChunkAverages(values, bucket_end - bucket_begin, 1, &avg_pos, &avg_neg);
    scales[2 * b] = avg_pos;
    scales[2 * b + 1] = avg_neg;
    kernels.one_bit_quantize(values, bucket_begin, bucket_end, bits);
  }
}

LPSGD_HOT_PATH
Status OneBitSgdReshapedCodec::DecodeRange(const uint8_t* blob,
                                           const Shape& shape, int64_t begin,
                                           int64_t end,
                                           CodecWorkspace* /*workspace*/,
                                           float* out) const {
  const int64_t buckets = NumChunks(shape);
  const float* scales = FloatsAt(blob, 0);
  const uint32_t* bits =
      WordsAt(blob, 2 * buckets * static_cast<int64_t>(sizeof(float)));

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);
    kernels.one_bit_dequantize(bits, bucket_begin, bucket_end, scales[2 * b],
                               scales[2 * b + 1], out + (bucket_begin - begin));
  }
  return OkStatus();
}

CodecSpec OneBitSgdSpec() {
  CodecSpec spec;
  spec.kind = CodecKind::kOneBitSgd;
  return spec;
}

CodecSpec OneBitSgdReshapedSpec(int64_t bucket_size) {
  CodecSpec spec;
  spec.kind = CodecKind::kOneBitSgdReshaped;
  spec.bucket_size = bucket_size;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkOneBitSgdCodecFamilies() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily OneBitSgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kOneBitSgd;
  family.name = "1bit";
  family.help = "stock per-column 1bitSGD (alias: 1bitsgd)";
  family.matches = [](const std::string& head) {
    return head == "1bit" || head == "1bitsgd";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    if (!params->TakePositional().empty() ||
        params->Take("bucket") != nullptr) {
      return InvalidArgumentError(
          "stock 1bitSGD has no bucket size; use 1bit*:<bucket>");
    }
    return OneBitSgdSpec();
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    return std::unique_ptr<GradientCodec>(
        new OneBitSgdCodec(spec.error_feedback));
  };
  family.label = [](const CodecSpec& spec) {
    return std::string(spec.error_feedback ? "1bitSGD" : "1bitSGD (no EF)");
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("1b");
  };
  return family;
}

CodecFamily OneBitSgdReshapedFamily() {
  CodecFamily family;
  family.kind = CodecKind::kOneBitSgdReshaped;
  family.name = "1bit*";
  family.help = "reshaped 1bitSGD, optional :<bucket> (default 64)";
  family.keys = {"bucket"};
  family.matches = [](const std::string& head) {
    return head == "1bit*" || head == "1bitsgd*";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    CodecSpec spec = OneBitSgdReshapedSpec();
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(
          StrCat("1bitSGD* bucket size must be positive, got ",
                 spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(
        new OneBitSgdReshapedCodec(spec.bucket_size, spec.error_feedback));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat(spec.error_feedback ? "1bitSGD*" : "1bitSGD* (no EF)",
                  " (b=", spec.bucket_size, ")");
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("1b*");
  };
  return family;
}

const CodecRegistrar stock_registrar(OneBitSgdFamily());
const CodecRegistrar reshaped_registrar(OneBitSgdReshapedFamily());

}  // namespace
}  // namespace lpsgd

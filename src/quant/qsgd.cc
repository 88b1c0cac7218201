// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/qsgd.h"

#include <algorithm>
#include <cmath>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "base/rng.h"
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

}  // namespace

QsgdCodec::QsgdCodec(int bits, int64_t bucket_size, QsgdNorm norm,
                     QsgdLevelScheme levels, uint64_t seed)
    : GradientCodec("qsgd"),
      bits_(bits),
      bucket_size_(bucket_size),
      norm_(norm),
      levels_(levels),
      seed_(seed) {
  CHECK_GE(bits, 2);
  CHECK_LE(bits, 16);
  CHECK_GT(bucket_size, 0);
  level_count_ = levels_ == QsgdLevelScheme::kSignMagnitude
                     ? (1u << (bits_ - 1)) - 1u  // s magnitude levels
                     : (1u << bits_) - 2u;       // 2^bits - 1 endpoints
  CHECK_GE(level_count_, 1u);
  magnitudes_.resize(static_cast<size_t>(level_count_) + 1);
  const double s = static_cast<double>(level_count_);
  for (uint32_t m = 0; m <= level_count_; ++m) magnitudes_[m] = m / s;
}

std::string QsgdCodec::Name() const {
  return StrCat("QSGD ", bits_, "bit (b=", bucket_size_, ")");
}

int64_t QsgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t buckets = NumChunks(shape);
  const BitPacker packer(bits_);
  return buckets * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

int64_t QsgdCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t QsgdCodec::RangeAlignment(const Shape& /*shape*/) const {
  return codec_internal::BucketRangeAlignment(bucket_size_, bits_);
}

LPSGD_HOT_PATH
void QsgdCodec::EncodeRange(const float* grad, const Shape& shape,
                            uint64_t stochastic_tag,
                            std::vector<float>* /*error*/, int64_t begin,
                            int64_t end, CodecWorkspace* /*workspace*/,
                            uint8_t* blob) const {
  const int64_t buckets = NumChunks(shape);
  const CounterRng stream(seed_, stochastic_tag);

  // Quantize straight into the wire blob: scales up front, then each field
  // streamed into the packed words — no intermediate field array and no
  // separate packing pass. An aligned range starts on a word boundary.
  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(bits_).values_per_word(),
      bits_);

  // Stochastic rounding of a*s between floor and ceil keeps the estimator
  // unbiased (Equation 1); the fused quantize loops live in the
  // runtime-dispatched kernel tables (quant/simd_kernels.h).
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
  quant_simd::QuantizeArgs args;
  args.values = grad;
  args.stream_seed = stream.stream_seed();
  args.bits = bits_;
  args.level_count = level_count_;
  args.writer = &writer;
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);

    double scale = 0.0;
    if (norm_ == QsgdNorm::kL2) {
      // Sequential widened sum: order-sensitive, stays scalar in every
      // dispatch mode so the wire scale is ISA-independent.
      for (int64_t i = bucket_begin; i < bucket_end; ++i) {
        scale += static_cast<double>(grad[i]) * grad[i];
      }
      scale = std::sqrt(scale);
    } else {
      scale = elementwise.max_abs_f32(grad + bucket_begin,
                                      bucket_end - bucket_begin);
    }
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // Zero fields decode to exact zeros; keep the stream position.
      for (int64_t i = bucket_begin; i < bucket_end; ++i) writer.Put(0u);
      continue;
    }

    args.begin = bucket_begin;
    args.end = bucket_end;
    args.scale = scale;
    if (levels_ == QsgdLevelScheme::kSignMagnitude) {
      kernels.qsgd_quantize_sm(args);
    } else {
      // Symmetric endpoints over [-scale, +scale].
      kernels.qsgd_quantize_sym(args);
    }
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status QsgdCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                              int64_t begin, int64_t end,
                              CodecWorkspace* /*workspace*/,
                              float* out) const {
  const int64_t buckets = NumChunks(shape);
  const float* scales = FloatsAt(blob, 0);
  BitReader reader(
      WordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))) +
          begin / BitPacker(bits_).values_per_word(),
      bits_);

  const double s = static_cast<double>(level_count_);
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = bits_;
  args.s = s;
  args.out = out;
  const int64_t first_bucket = begin / bucket_size_;
  if (levels_ == QsgdLevelScheme::kSignMagnitude) {
    args.magnitude_mask = (1u << (bits_ - 1)) - 1u;
    // magnitudes_[m] * scale in the kernel is bit-identical to the unfused
    // (m / s) * scale.
    args.magnitudes = magnitudes_.data();
    for (int64_t b = first_bucket; b * bucket_size_ < end; ++b) {
      args.begin = b * bucket_size_;
      args.end = std::min(args.begin + bucket_size_, end);
      args.scale = scales[b];
      kernels.dequantize_sm(args);
    }
  } else {
    for (int64_t b = first_bucket; b * bucket_size_ < end; ++b) {
      args.begin = b * bucket_size_;
      args.end = std::min(args.begin + bucket_size_, end);
      args.scale = scales[b];
      kernels.dequantize_sym(args);
    }
  }
  return OkStatus();
}

CodecSpec QsgdSpec(int bits) {
  CodecSpec spec;
  spec.kind = CodecKind::kQsgd;
  spec.bits = bits;
  // Section 4.4 tuning protocol: bucket 128 for 2bit, 512 for 4/8bit,
  // 8192 for 16bit.
  switch (bits) {
    case 2:
      spec.bucket_size = 128;
      break;
    case 4:
    case 8:
      spec.bucket_size = 512;
      break;
    case 16:
      spec.bucket_size = 8192;
      break;
    default:
      spec.bucket_size = 512;
      break;
  }
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkQsgdCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily QsgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kQsgd;
  family.name = "q<bits>";
  family.help = "QSGD, bits in [2,16], optional :<bucket> or key=value "
                "(bucket=, norm=max|l2, levels=sm|sym)";
  family.keys = {"bucket", "norm", "levels"};
  family.matches = [](const std::string& head) {
    return MatchesBitsHead(head, "q");
  };
  family.parse = [](const std::string& head,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits, ParseBitsHead(head, "q", "QSGD"));
    CodecSpec spec = QsgdSpec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    if (const std::string* norm = params->Take("norm")) {
      if (*norm == "max") {
        spec.norm = QsgdNorm::kMax;
      } else if (*norm == "l2") {
        spec.norm = QsgdNorm::kL2;
      } else {
        return InvalidArgumentError(
            StrCat("bad QSGD norm: ", *norm, " (expected max or l2)"));
      }
    }
    if (const std::string* levels = params->Take("levels")) {
      if (*levels == "sm") {
        spec.levels = QsgdLevelScheme::kSignMagnitude;
      } else if (*levels == "sym") {
        spec.levels = QsgdLevelScheme::kSymmetric;
      } else {
        return InvalidArgumentError(StrCat("bad QSGD level scheme: ",
                                           *levels,
                                           " (expected sm or sym)"));
      }
    }
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat("QSGD bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(StrCat(
          "QSGD bucket size must be positive, got ", spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(new QsgdCodec(
        spec.bits, spec.bucket_size, spec.norm, spec.levels, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("QSGD ", spec.bits, "bit (b=", spec.bucket_size, ")");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("Q", spec.bits);
  };
  return family;
}

const CodecRegistrar registrar(QsgdFamily());

}  // namespace
}  // namespace lpsgd

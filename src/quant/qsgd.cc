// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/qsgd.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "base/rng.h"
#include "base/strings.h"
#include "quant/registry.h"
#include "quant/simd_kernels.h"

namespace lpsgd {
namespace {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

// The three settings of QsgdCodec: how each is spelled in the grammar, in
// labels and names, and in the quant/<id>/* counters.
struct QsgdVariant {
  CodecKind kind;
  const char* prefix;        // grammar head "<prefix><bits>"
  const char* display;       // Name() and Label()
  const char* short_prefix;  // ShortLabel()
  const char* metric;        // MetricName()
  const char* help;
  CodecSpec (*make_spec)(int bits);
};

constexpr QsgdVariant kVariants[] = {
    {CodecKind::kQsgd, "q", "QSGD", "Q", "qsgd",
     "QSGD, bits in [2,16], optional :<bucket> or key=value "
     "(bucket=, norm=max|l2, levels=sm|sym)",
     &QsgdSpec},
    {CodecKind::kNuqsgd, "nuq", "NUQSGD", "NQ", "nuqsgd",
     "nonuniform (exponential-level) QSGD, bits in [2,16], "
     "optional :<bucket> or bucket=",
     &NuqsgdSpec},
    {CodecKind::kEcqSgd, "ecq", "ECQ-SGD", "EC", "ecq_sgd",
     "error-compensated QSGD, bits in [2,16], optional "
     ":<bucket> or bucket=",
     &EcqSgdSpec},
};

const QsgdVariant& VariantOf(CodecKind kind) {
  size_t i = 0;
  while (i < std::size(kVariants) && kVariants[i].kind != kind) ++i;
  CHECK_LT(i, std::size(kVariants)) << "not a QSGD-family codec kind";
  return kVariants[i];
}

}  // namespace

QsgdCodec::QsgdCodec(const CodecSpec& spec)
    : GradientCodec(VariantOf(spec.kind).metric,
                    spec.kind == CodecKind::kEcqSgd && spec.error_feedback),
      kind_(spec.kind),
      bits_(spec.bits),
      bucket_size_(spec.bucket_size),
      // The norm each NUQSGD and ECQ-SGD analysis assumes.
      norm_(kind_ == CodecKind::kNuqsgd   ? QsgdNorm::kL2
            : kind_ == CodecKind::kEcqSgd ? QsgdNorm::kMax
                                          : spec.norm),
      levels_(kind_ == CodecKind::kQsgd ? spec.levels
                                        : QsgdLevelScheme::kSignMagnitude),
      seed_(spec.seed) {
  CHECK_GE(bits_, 2);
  CHECK_LE(bits_, 16);
  CHECK_GT(bucket_size_, 0);
  level_count_ = levels_ == QsgdLevelScheme::kSignMagnitude
                     ? (1u << (bits_ - 1)) - 1u  // s magnitude levels
                     : (1u << bits_) - 2u;       // 2^bits - 1 endpoints
  CHECK_GE(level_count_, 1u);
  magnitudes_.resize(static_cast<size_t>(level_count_) + 1);
  const double s = static_cast<double>(level_count_);
  const int s_int = static_cast<int>(level_count_);
  for (uint32_t m = 0; m <= level_count_; ++m) {
    if (kind_ == CodecKind::kNuqsgd) {
      magnitudes_[m] =
          m == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(m) - s_int);
    } else {
      magnitudes_[m] = m / s;
    }
  }
}

std::string QsgdCodec::Name() const {
  return StrCat(VariantOf(kind_).display, " ", bits_, "bit (b=",
                bucket_size_, ")");
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
void QsgdCodec::QuantizeRange(const float* grad, const Shape& shape,
                              uint64_t stochastic_tag, int64_t begin,
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

  // Stochastic rounding between adjacent levels keeps the estimator
  // unbiased (Equation 1); the fused quantize loops live in the
  // runtime-dispatched kernel tables (quant/simd_kernels.h).
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
  quant_simd::QuantizeArgs args;
  args.stream_seed = stream.stream_seed();
  args.bits = bits_;
  args.level_count = level_count_;
  args.writer = &writer;
  args.magnitudes = magnitudes_.data();
  for (int64_t b = begin / bucket_size_; b * bucket_size_ < end; ++b) {
    const int64_t bucket_begin = b * bucket_size_;
    const int64_t bucket_end = std::min(bucket_begin + bucket_size_, end);
    const float* values = grad + (bucket_begin - begin);

    double scale = 0.0;
    if (norm_ == QsgdNorm::kL2) {
      // Sequential widened sum: order-sensitive, stays scalar in every
      // dispatch mode so the wire scale is ISA-independent.
      for (int64_t i = 0; i < bucket_end - bucket_begin; ++i) {
        scale += static_cast<double>(values[i]) * values[i];
      }
      scale = std::sqrt(scale);
    } else {
      scale = elementwise.max_abs_f32(values, bucket_end - bucket_begin);
    }
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // Zero fields decode to exact zeros; keep the stream position.
      for (int64_t i = bucket_begin; i < bucket_end; ++i) writer.Put(0u);
      continue;
    }

    args.values = values;
    args.begin = bucket_begin;
    args.end = bucket_end;
    args.scale = scale;
    if (kind_ == CodecKind::kNuqsgd) {
      // Bracket search on the exponential grid.
      kernels.nuq_quantize(args);
    } else if (levels_ == QsgdLevelScheme::kSignMagnitude) {
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

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = bits_;
  args.s = static_cast<double>(level_count_);
  const int64_t first_bucket = begin / bucket_size_;
  if (levels_ == QsgdLevelScheme::kSignMagnitude) {
    args.magnitude_mask = (1u << (bits_ - 1)) - 1u;
    // magnitudes_[m] * scale in the kernel is bit-identical to the unfused
    // (m / s) * scale.
    args.magnitudes = magnitudes_.data();
    for (int64_t b = first_bucket; b * bucket_size_ < end; ++b) {
      args.begin = b * bucket_size_;
      args.end = std::min(args.begin + bucket_size_, end);
      args.out = out + (args.begin - begin);
      args.scale = scales[b];
      kernels.dequantize_sm(args);
    }
  } else {
    for (int64_t b = first_bucket; b * bucket_size_ < end; ++b) {
      args.begin = b * bucket_size_;
      args.end = std::min(args.begin + bucket_size_, end);
      args.out = out + (args.begin - begin);
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
    case 16:
      spec.bucket_size = 8192;
      break;
    default:
      spec.bucket_size = 512;
      break;
  }
  return spec;
}

CodecSpec NuqsgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kNuqsgd;
  spec.norm = QsgdNorm::kL2;  // the norm the NUQSGD analysis assumes
  return spec;
}

CodecSpec EcqSgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kEcqSgd;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkQsgdCodecFamilies() { return 0; }
}  // namespace codec_internal

namespace {

std::unique_ptr<GradientCodec> MakeQsgdCodec(const CodecSpec& spec) {
  return std::make_unique<QsgdCodec>(spec);
}

CodecFamily VariantFamily(const QsgdVariant& variant) {
  return BitsCodecFamily(variant.kind, variant.prefix, variant.display,
                         variant.short_prefix, variant.help,
                         variant.make_spec, &MakeQsgdCodec);
}

// q<bits> adds the QSGD-only norm= and levels= keys to the shared grammar.
CodecFamily QsgdFamily() {
  CodecFamily family = VariantFamily(kVariants[0]);
  family.keys = {"bucket", "norm", "levels"};
  family.parse = [parse_bits = std::move(family.parse)](
                     const std::string& head,
                     CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(CodecSpec spec, parse_bits(head, params));
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
  return family;
}

const CodecRegistrar qsgd_registrar(QsgdFamily());
const CodecRegistrar nuqsgd_registrar(VariantFamily(kVariants[1]));
const CodecRegistrar ecq_sgd_registrar(VariantFamily(kVariants[2]));

}  // namespace
}  // namespace lpsgd

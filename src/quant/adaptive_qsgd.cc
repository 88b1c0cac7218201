// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/adaptive_qsgd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/thread_annotations.h"
#include "base/rng.h"
#include "base/strings.h"
#include "quant/registry.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

// Largest sample used for quantile estimation; matrices beyond this size
// are subsampled deterministically.
constexpr int64_t kQuantileSample = 4096;

}  // namespace

AdaptiveQsgdCodec::AdaptiveQsgdCodec(int bits, int64_t bucket_size,
                                     uint64_t seed)
    : GradientCodec("adaptive_qsgd"),
      bits_(bits),
      bucket_size_(bucket_size),
      seed_(seed) {
  CHECK_GE(bits, 2);
  CHECK_LE(bits, 16);
  CHECK_GT(bucket_size, 0);
  level_count_ = (1u << (bits_ - 1)) - 1u;
  CHECK_GE(level_count_, 1u);
}

std::string AdaptiveQsgdCodec::Name() const {
  return StrCat("AdaptiveQSGD ", bits_, "bit (b=", bucket_size_, ")");
}

int64_t AdaptiveQsgdCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t AdaptiveQsgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(bits_);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         (level_count_ + 1) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

namespace {

// Expected stochastic-rounding variance of the sorted `sample` under the
// level placement `levels`: for a value a in [lo, hi], the variance is
// (a - lo)(hi - a).
double PlacementVariance(const std::vector<float>& sample,
                         const std::vector<float>& levels) {
  double total = 0.0;
  size_t j = 0;
  for (float a : sample) {
    while (j + 2 < levels.size() && a > levels[j + 1]) ++j;
    const double lo = levels[j];
    const double hi = levels[j + 1];
    if (a >= lo && a <= hi) {
      total += (a - lo) * (hi - a);
    }
  }
  return total;
}

}  // namespace

void AdaptiveQsgdCodec::ComputeLevelsInto(const float* grad,
                                          const Shape& shape,
                                          const float* scales,
                                          CodecWorkspace* workspace) const {
  const int64_t n = shape.element_count();
  const uint32_t s = level_count_;
  // Start from QSGD's uniform grid; optimization below only improves it.
  std::vector<float>& levels = workspace->levels;
  quant_internal::EnsureSize(&levels, static_cast<size_t>(s) + 1);
  for (uint32_t j = 0; j <= s; ++j) {
    levels[j] = static_cast<float>(j) / static_cast<float>(s);
  }
  // {0, 1} has no interior levels; beyond ~5 bits the uniform grid is
  // already fine-grained and the cubic-cost optimization stops paying for
  // itself (consistent with the paper's "no significant improvement").
  if (s < 2 || s > 31) return;

  // Deterministic subsample of normalized magnitudes.
  // Sized for every strided index, then trimmed to the ones kept.
  std::vector<float>& sample = workspace->sample;
  const int64_t stride = std::max<int64_t>(1, n / kQuantileSample);
  float* kept = quant_internal::EnsureSize(
      &sample, static_cast<size_t>((n + stride - 1) / stride));
  size_t kept_count = 0;
  for (int64_t i = 0; i < n; i += stride) {
    const float scale = scales[i / bucket_size_];
    if (scale > 0.0f) {
      kept[kept_count++] = std::abs(grad[i]) / scale;
    }
  }
  quant_internal::EnsureSize(&sample, kept_count);
  if (sample.empty()) return;
  std::sort(sample.begin(), sample.end());

  // ZipML-style variance-minimizing placement: coordinate descent over the
  // interior levels. For fixed neighbors the objective restricted to one
  // level is piecewise-quadratic and unimodal, so a golden-section-style
  // ternary search finds its minimum; sweeps repeat until the gain fades.
  std::vector<float>& trial = workspace->trial;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (uint32_t j = 1; j < s; ++j) {
      double lo = levels[j - 1];
      double hi = levels[j + 1];
      // `trial` tracks `levels` except at position j, matching the fresh
      // copies the unfused code made per probe.
      std::copy(levels.begin(), levels.end(),
                quant_internal::EnsureSize(&trial, levels.size()));
      for (int iter = 0; iter < 25; ++iter) {
        const double m1 = lo + (hi - lo) / 3.0;
        const double m2 = hi - (hi - lo) / 3.0;
        trial[j] = static_cast<float>(m1);
        const double f1 = PlacementVariance(sample, trial);
        trial[j] = static_cast<float>(m2);
        const double f2 = PlacementVariance(sample, trial);
        if (f1 < f2) {
          hi = m2;
        } else {
          lo = m1;
        }
      }
      const double candidate = (lo + hi) / 2.0;
      trial[j] = static_cast<float>(candidate);
      if (PlacementVariance(sample, trial) <
          PlacementVariance(sample, levels)) {
        levels[j] = static_cast<float>(candidate);
      }
    }
  }
  // Monotonicity is maintained by construction (each search is confined
  // to the neighbor interval), but enforce it defensively.
  for (uint32_t j = 1; j <= s; ++j) {
    levels[j] = std::max(levels[j], levels[j - 1]);
  }
}

std::vector<float> AdaptiveQsgdCodec::ComputeLevels(
    const float* grad, const Shape& shape,
    const std::vector<float>& scales) const {
  CodecWorkspace workspace;
  ComputeLevelsInto(grad, shape, scales.data(), &workspace);
  return std::move(workspace.levels);
}

int64_t AdaptiveQsgdCodec::RangeAlignment(const Shape& /*shape*/) const {
  // The level table is fitted to the whole matrix's magnitudes.
  return 0;
}

LPSGD_HOT_PATH
void AdaptiveQsgdCodec::EncodeRange(const float* grad, const Shape& shape,
                                    uint64_t stochastic_tag,
                                    std::vector<float>* /*error*/,
                                    int64_t begin, int64_t end,
                                    CodecWorkspace* workspace,
                                    uint8_t* blob) const {
  const int64_t n = shape.element_count();
  CHECK_EQ(begin, 0);
  CHECK_EQ(end, n);
  const int64_t buckets = NumChunks(shape);
  const CounterRng stream(seed_, stochastic_tag);
  const uint32_t s = level_count_;

  float* scales = MutableFloatsAt(blob, 0);
  for (int64_t b = 0; b < buckets; ++b) {
    const int64_t begin = b * bucket_size_;
    const int64_t end = std::min(begin + bucket_size_, n);
    double max_abs = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      max_abs = std::max(max_abs, std::abs(static_cast<double>(grad[i])));
    }
    scales[b] = static_cast<float>(max_abs);
  }

  ComputeLevelsInto(grad, shape, scales, workspace);
  const std::vector<float>& levels = workspace->levels;
  std::memcpy(blob + buckets * sizeof(float), levels.data(),
              (static_cast<size_t>(s) + 1) * sizeof(float));

  BitWriter writer(
      MutableWordsAt(blob, (buckets + s + 1) *
                               static_cast<int64_t>(sizeof(float))),
      bits_);
  for (int64_t i = 0; i < n; ++i) {
    const float scale = scales[i / bucket_size_];
    if (scale == 0.0f) {
      writer.Put(0u);
      continue;
    }
    const double a =
        std::min(1.0, std::abs(static_cast<double>(grad[i])) / scale);
    // Interval [levels[j], levels[j+1]] containing a.
    uint32_t j = static_cast<uint32_t>(
        std::upper_bound(levels.begin(), levels.end(),
                         static_cast<float>(a)) -
        levels.begin());
    j = j == 0 ? 0 : j - 1;
    if (j >= s) j = s - 1;
    const double lo = levels[j];
    const double hi = levels[j + 1];
    uint32_t level = j;
    if (hi > lo) {
      const double p = (a - lo) / (hi - lo);  // unbiased split
      if (stream.UniformAt(static_cast<uint64_t>(i)) < p) level = j + 1;
    } else if (a >= hi) {
      level = j + 1;
    }
    const uint32_t sign = grad[i] < 0.0f ? 1u : 0u;
    writer.Put((sign << (bits_ - 1)) | level);
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status AdaptiveQsgdCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                                      int64_t /*begin*/, int64_t /*end*/,
                                      CodecWorkspace* /*workspace*/,
                                      float* out) const {
  const int64_t n = shape.element_count();
  const int64_t buckets = NumChunks(shape);
  const float* scales = FloatsAt(blob, 0);
  const float* levels =
      FloatsAt(blob, buckets * static_cast<int64_t>(sizeof(float)));
  BitReader reader(
      WordsAt(blob, (buckets + level_count_ + 1) *
                        static_cast<int64_t>(sizeof(float))),
      bits_);

  const uint32_t magnitude_mask = (1u << (bits_ - 1)) - 1u;
  for (int64_t b = 0; b < buckets; ++b) {
    const int64_t begin = b * bucket_size_;
    const int64_t end = std::min(begin + bucket_size_, n);
    const double scale = scales[b];
    for (int64_t i = begin; i < end; ++i) {
      const uint32_t field = reader.Next();
      const bool negative = (field >> (bits_ - 1)) & 1u;
      uint32_t level = field & magnitude_mask;
      if (level > level_count_) level = level_count_;
      const double magnitude = levels[level] * scale;
      out[i] = static_cast<float>(negative ? -magnitude : magnitude);
    }
  }
  return OkStatus();
}

CodecSpec AdaptiveQsgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kQsgdAdaptive;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkAdaptiveQsgdCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily AdaptiveQsgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kQsgdAdaptive;
  family.name = "aq<bits>";
  family.help = "adaptive-level QSGD (ZipML placement), bits in [2,16], "
                "optional :<bucket> or bucket=";
  family.keys = {"bucket"};
  family.matches = [](const std::string& head) {
    return MatchesBitsHead(head, "aq");
  };
  family.parse = [](const std::string& head,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits,
                           ParseBitsHead(head, "aq", "AdaptiveQSGD"));
    CodecSpec spec = AdaptiveQsgdSpec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat("AdaptiveQSGD bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(
          StrCat("AdaptiveQSGD bucket size must be positive, got ",
                 spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(
        new AdaptiveQsgdCodec(spec.bits, spec.bucket_size, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("AdaptiveQSGD ", spec.bits, "bit (b=", spec.bucket_size,
                  ")");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("AQ", spec.bits);
  };
  return family;
}

const CodecRegistrar registrar(AdaptiveQsgdFamily());

}  // namespace
}  // namespace lpsgd

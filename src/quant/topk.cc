// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/topk.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/thread_annotations.h"
#include "base/strings.h"
#include "obs/span.h"
#include "quant/registry.h"
#include "quant/workspace.h"

namespace lpsgd {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

namespace {

// The value TopK sends for gradient element g: g + 0.0f, which flushes
// -0.0f to +0.0f (wire-visible) and quiets a signalling NaN.
inline float SentValue(float g) { return g + 0.0f; }

// Selection key of gradient element g: the bits of its sent value with the
// sign cleared. Unsigned key order is magnitude order (denormals below
// normals, +inf above every finite value), with every NaN ranked above
// +inf.
inline uint32_t MagnitudeKey(float g) {
  return std::bit_cast<uint32_t>(SentValue(g)) & 0x7fffffffu;
}

// The radix select's digits, most significant first: key bits 31..21,
// 20..10 and 9..0.
constexpr int kDigitBits = 11;
constexpr int kLastDigitBits = 10;
constexpr int kHighShift = kDigitBits + kLastDigitBits;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
constexpr uint32_t kLastDigitMask = (1u << kLastDigitBits) - 1;
using DigitHistogram = std::array<uint32_t, size_t{1} << kDigitBits>;

// The digit whose bucket holds the rank-th largest (1-based) of the
// counted keys, scanning `histogram[0, size)` from the top; *rank becomes
// the rank within that bucket.
uint32_t TopDigit(const DigitHistogram& histogram, uint32_t size,
                  int64_t* rank) {
  uint32_t digit = size - 1;
  for (; digit > 0 && histogram[digit] < *rank; --digit) {
    *rank -= histogram[digit];
  }
  return digit;
}

// The k-th largest key T of a radix select, how many keys equal T rank
// among the k largest (>= 1), and how many keys equal T in all.
struct Threshold {
  uint32_t key;
  int64_t ties;
  int64_t equal;
};

// Radix select of the k-th largest key of grad[0, n). The first digit
// is counted over every element, the second over the keys left in the
// first digit's bucket (compacted into `candidates`), the third over the
// candidates that also share the second digit. Integer-exact, so the
// result is the same on every ISA.
LPSGD_HOT_PATH
Threshold SelectThreshold(const float* grad, int64_t n, int64_t k,
                          std::vector<uint32_t>* candidates) {
  DigitHistogram histogram{};
  for (int64_t i = 0; i < n; ++i) {
    ++histogram[MagnitudeKey(grad[i]) >> kHighShift];
  }
  int64_t rank = k;
  const uint32_t high = TopDigit(histogram, kDigitMask + 1, &rank);

  // Branch-free compaction: a non-matching key is written and then
  // overwritten, so the list needs one slot past its final length. Sized
  // by n, not by the bucket, so a steady-state encode never grows it.
  uint32_t* list =
      quant_internal::EnsureSize(candidates, static_cast<size_t>(n) + 1);
  int64_t m = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t key = MagnitudeKey(grad[i]);
    list[m] = key;
    m += (key >> kHighShift) == high;
  }

  histogram.fill(0);
  for (int64_t j = 0; j < m; ++j) {
    ++histogram[(list[j] >> kLastDigitBits) & kDigitMask];
  }
  const uint32_t prefix =
      (high << kDigitBits) | TopDigit(histogram, kDigitMask + 1, &rank);

  histogram.fill(0);
  for (int64_t j = 0; j < m; ++j) {
    histogram[list[j] & kLastDigitMask] +=
        (list[j] >> kLastDigitBits) == prefix;
  }
  const uint32_t low = TopDigit(histogram, kLastDigitMask + 1, &rank);
  return {(prefix << kLastDigitBits) | low, rank, histogram[low]};
}

// Appends to kept[count, ...) the indices in [begin, end) whose key
// exceeds `floor`, and returns the new count. Branch-free: a dropped index
// is written and then overwritten, so `kept` needs one slot past the final
// count.
LPSGD_HOT_PATH
int64_t KeepAbove(const float* grad, int64_t begin, int64_t end,
                  int64_t floor, uint32_t* kept, int64_t count) {
  for (int64_t i = begin; i < end; ++i) {
    kept[count] = static_cast<uint32_t>(i);
    count += int64_t{MagnitudeKey(grad[i])} > floor;
  }
  return count;
}

}  // namespace

TopKCodec::TopKCodec(double density, bool error_feedback)
    : GradientCodec("topk", error_feedback), density_(density) {
  CHECK_GT(density, 0.0);
  CHECK_LE(density, 1.0);
}

std::string TopKCodec::Name() const {
  return StrCat("TopK (", FormatDouble(density_ * 100.0, 1), "%)");
}

int64_t TopKCodec::KeptCount(int64_t n) const {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(density_ * static_cast<double>(n))));
}

int64_t TopKCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t k = KeptCount(n);
  return static_cast<int64_t>(sizeof(uint32_t)) +
         IndexRunWordCount(n, k) * static_cast<int64_t>(sizeof(uint32_t)) +
         k * static_cast<int64_t>(sizeof(float)) +
         codec_internal::kWireChecksumBytes;
}

int64_t TopKCodec::SparseCount(const Shape& shape) const {
  return KeptCount(shape.element_count());
}

int64_t TopKCodec::NumChunks(const Shape& /*shape*/) const {
  // One selection pass per matrix; the per-element cost dominates.
  return 1;
}

int64_t TopKCodec::RangeAlignment(const Shape& /*shape*/) const {
  // The kept set is a whole-matrix magnitude selection.
  return 0;
}

LPSGD_HOT_PATH
void TopKCodec::QuantizeRange(const float* grad, const Shape& shape,
                              uint64_t /*stochastic_tag*/, int64_t begin,
                              int64_t end, CodecWorkspace* workspace,
                              uint8_t* blob) const {
  const int64_t n = shape.element_count();
  CHECK_EQ(begin, 0);
  CHECK_EQ(end, n);

  const int64_t k = KeptCount(n);
  const Threshold threshold =
      SelectThreshold(grad, n, k, &workspace->candidates);

  // The kept set: every key above T, then the lowest-indexed keys equal to
  // T until k are kept. Before `cut` (one past the last tie kept, or n
  // when every tie is kept) every key >= T goes, from `cut` on only keys
  // > T, so one branch-free pass in index order emits the set.
  int64_t cut = n;
  if (threshold.ties < threshold.equal) {
    int64_t seen = 0;
    for (cut = 0; seen < threshold.ties; ++cut) {
      seen += MagnitudeKey(grad[cut]) == threshold.key;
    }
  }
  uint32_t* kept = quant_internal::EnsureSize(&workspace->sparse_indices,
                                              static_cast<size_t>(k + 1));
  int64_t count =
      KeepAbove(grad, 0, cut, int64_t{threshold.key} - 1, kept, 0);
  count = KeepAbove(grad, cut, n, threshold.key, kept, count);
  DCHECK_EQ(count, k);

  uint32_t* words = MutableWordsAt(blob, 0);
  words[0] = static_cast<uint32_t>(k);
  BitWriter writer(words + 1, IndexBitWidth(n));
  float* values = MutableFloatsAt(
      blob, static_cast<int64_t>(sizeof(uint32_t)) +
                IndexRunWordCount(n, k) *
                    static_cast<int64_t>(sizeof(uint32_t)));
  for (int64_t j = 0; j < k; ++j) {
    writer.Put(kept[j]);
    values[j] = SentValue(grad[kept[j]]);
  }
  writer.Finish();
}

LPSGD_HOT_PATH
Status TopKCodec::DecodeRange(const uint8_t* blob, const Shape& shape,
                              int64_t /*begin*/, int64_t /*end*/,
                              CodecWorkspace* workspace, float* out) const {
  const int64_t n = shape.element_count();
  const int64_t k = KeptCount(n);
  // Stage the sparse form in workspace scratch: the framing validation
  // must finish before `out` is touched (which must stay intact on error).
  uint32_t* indices = quant_internal::EnsureSize(&workspace->sparse_indices,
                                                 static_cast<size_t>(k));
  float* values = quant_internal::EnsureSize(&workspace->corrected,
                                             static_cast<size_t>(k));
  LPSGD_RETURN_IF_ERROR(ParseSparse(blob, n, indices, values));
  std::fill(out, out + n, 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    out[indices[i]] = values[i];
  }
  return OkStatus();
}

LPSGD_HOT_PATH
Status TopKCodec::DecodeSparse(const uint8_t* bytes, int64_t num_bytes,
                               const Shape& shape, CodecWorkspace* workspace,
                               uint32_t* indices, float* values) const {
  obs::Span span(codec_internal::kDecodeSpan, &workspace->phases);
  CountDecode();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      "topk", bytes, num_bytes, EncodedSizeBytes(shape)));
  return ParseSparse(bytes, shape.element_count(), indices, values);
}

LPSGD_HOT_PATH
Status TopKCodec::ParseSparse(const uint8_t* blob, int64_t n,
                              uint32_t* indices, float* values) const {
  // The checksum is 32 bits, so collisions are possible: re-validate the
  // framing fields before trusting the payload.
  const uint32_t count = *WordsAt(blob, 0);
  const int64_t k = KeptCount(n);
  if (static_cast<int64_t>(count) != k) {
    return DataLossError(StrCat("topk: blob claims ", count,
                                " components, expected ", k));
  }
  if (!UnpackIndexRun(WordsAt(blob, sizeof(uint32_t)), k, n, indices)) {
    return DataLossError(StrCat(
        "topk: component indices not strictly increasing in [0, ", n, ")"));
  }
  const float* wire_values =
      FloatsAt(blob, static_cast<int64_t>(sizeof(uint32_t)) +
                         IndexRunWordCount(n, k) *
                             static_cast<int64_t>(sizeof(uint32_t)));
  std::memcpy(values, wire_values, static_cast<size_t>(k) * sizeof(float));
  return OkStatus();
}

CodecSpec TopKSpec(double density) {
  CodecSpec spec;
  spec.kind = CodecKind::kTopK;
  spec.density = density;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkTopKCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily TopKFamily() {
  CodecFamily family;
  family.kind = CodecKind::kTopK;
  family.name = "topk";
  family.help = "top-k sparsification, density in (0,1] required "
                "(topk:<density> or topk:density=<density>)";
  family.keys = {"density"};
  family.matches = [](const std::string& head) { return head == "topk"; };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const std::string text,
                           TakeValueOrKey(params, "density"));
    if (text.empty()) {
      return InvalidArgumentError(
          "topk needs a density (topk:<density> or topk:density=<density>)");
    }
    LPSGD_ASSIGN_OR_RETURN(const double density,
                           ParseDoubleParam(text, "TopK density"));
    if (density <= 0.0 || density > 1.0) {
      return InvalidArgumentError(StrCat("bad TopK density: ", text));
    }
    return TopKSpec(density);
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (!(spec.density > 0.0 && spec.density <= 1.0)) {
      return InvalidArgumentError(StrCat(
          "TopK density must be in (0, 1], got ", spec.density));
    }
    return std::unique_ptr<GradientCodec>(
        new TopKCodec(spec.density, spec.error_feedback));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("TopK ", FormatDouble(spec.density * 100.0, 1), "%");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("K", FormatDouble(spec.density * 100.0, 0));
  };
  return family;
}

const CodecRegistrar registrar(TopKFamily());

}  // namespace
}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The codec range contract (GradientCodec::RangeAlignment / EncodeRange /
// DecodeRange): encoding the aligned ranges of a partition in any order
// and then sealing reproduces Encode's bytes and residuals exactly, and
// DecodeRange yields exactly Decode's slice without writing outside its
// range. Codecs whose blob cannot be split report alignment 0 and accept
// the full range only.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/shape.h"

namespace lpsgd {
namespace {

std::vector<float> TestGradient(int64_t n, uint64_t seed) {
  std::vector<float> grad(static_cast<size_t>(n));
  Rng rng(seed);
  for (float& g : grad) g = static_cast<float>(rng.NextGaussian());
  // Zero buckets exercise the scale == 0 paths.
  std::fill(grad.begin(), grad.begin() + std::min<int64_t>(n, 600), 0.0f);
  return grad;
}

std::unique_ptr<GradientCodec> MakeCodec(const char* text) {
  auto spec = CodecSpec::Parse(text);
  CHECK_OK(spec.status());
  auto codec = spec->Create();
  CHECK_OK(codec.status());
  return std::move(*codec);
}

// The [begin, end) ranges of `n` elements cut every `step` elements.
std::vector<std::pair<int64_t, int64_t>> Partition(int64_t n, int64_t step) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  for (int64_t begin = 0; begin < n; begin += step) {
    ranges.emplace_back(begin, std::min(begin + step, n));
  }
  return ranges;
}

class SplittableCodecTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SplittableCodecTest, ShuffledRangeEncodeMatchesEncode) {
  const std::unique_ptr<GradientCodec> codec = MakeCodec(GetParam());
  const Shape shape({25, 401});  // ragged against every alignment below
  const int64_t n = shape.element_count();
  const int64_t alignment = codec->RangeAlignment(shape);
  ASSERT_GT(alignment, 0);
  const bool feedback = codec->UsesErrorFeedback();

  std::vector<float> error_whole(static_cast<size_t>(n), 0.0f);
  std::vector<float> error_ranges(static_cast<size_t>(n), 0.0f);
  CodecWorkspace workspace;
  std::mt19937 shuffle(7);
  // Two rounds, so the second encodes against a nonzero residual.
  for (uint64_t round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << GetParam() << " round " << round);
    const std::vector<float> grad = TestGradient(n, 0x4a5e + round);
    std::vector<uint8_t> whole;
    codec->Encode(grad.data(), shape, /*stochastic_tag=*/round,
                  feedback ? &error_whole : nullptr, &workspace, &whole);

    std::vector<std::pair<int64_t, int64_t>> ranges =
        Partition(n, 2 * alignment);
    std::shuffle(ranges.begin(), ranges.end(), shuffle);
    std::vector<uint8_t> blob(
        static_cast<size_t>(codec->EncodedSizeBytes(shape)), 0xa5);
    for (const auto& [begin, end] : ranges) {
      codec->EncodeRange(grad.data(), shape, /*stochastic_tag=*/round,
                         feedback ? &error_ranges : nullptr, begin, end,
                         &workspace, blob.data());
    }
    codec_internal::SealWireBlob(
        blob.data(), static_cast<int64_t>(blob.size()) -
                         codec_internal::kWireChecksumBytes);
    EXPECT_EQ(blob, whole);
    EXPECT_EQ(0, std::memcmp(error_ranges.data(), error_whole.data(),
                             error_whole.size() * sizeof(float)));
  }
}

TEST_P(SplittableCodecTest, RangeDecodeMatchesDecodeSlice) {
  CodecWorkspace workspace;
  const std::unique_ptr<GradientCodec> codec = MakeCodec(GetParam());
  const Shape shape({25, 401});
  const int64_t n = shape.element_count();
  const int64_t alignment = codec->RangeAlignment(shape);
  ASSERT_GT(alignment, 0);
  std::vector<float> error(static_cast<size_t>(n), 0.0f);
  const std::vector<float> grad = TestGradient(n, 0xdec0);
  std::vector<uint8_t> blob;
  codec->Encode(grad.data(), shape, /*stochastic_tag=*/3,
                codec->UsesErrorFeedback() ? &error : nullptr, &workspace,
                &blob);
  std::vector<float> whole(static_cast<size_t>(n));
  ASSERT_TRUE(codec->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                            shape, &workspace, whole.data())
                  .ok());

  // Whole alignments of at least 256 elements keep fp32 (alignment 1)
  // from decoding ten thousand single-element ranges.
  const int64_t unit = alignment * std::max<int64_t>(1, 256 / alignment);
  for (const int64_t step : {unit, 3 * unit}) {
    for (const auto& [begin, end] : Partition(n, step)) {
      SCOPED_TRACE(testing::Message() << GetParam() << " [" << begin << ", "
                                      << end << ")");
      // Sentinel everywhere: the range must be overwritten, the rest kept.
      std::vector<float> out(static_cast<size_t>(n), 1234.5f);
      ASSERT_TRUE(codec->DecodeRange(blob.data(), shape, begin, end,
                                     &workspace, out.data())
                      .ok());
      EXPECT_EQ(0, std::memcmp(out.data() + begin, whole.data() + begin,
                               static_cast<size_t>(end - begin) *
                                   sizeof(float)));
      EXPECT_TRUE(std::all_of(out.begin(), out.begin() + begin,
                              [](float v) { return v == 1234.5f; }));
      EXPECT_TRUE(std::all_of(out.begin() + end, out.end(),
                              [](float v) { return v == 1234.5f; }));
    }
  }
}

// Every bucketed family, with buckets that word boundaries do not divide
// (q3 packs 10 fields per word) and the 1-bit and 16-bit extremes.
INSTANTIATE_TEST_SUITE_P(
    Families, SplittableCodecTest,
    ::testing::Values("fp32", "q2", "q4", "q8", "q16", "q3:100",
                      "q4:bucket=96,norm=l2,levels=sym", "nuq4", "nuq3:50",
                      "ecq4", "ecq2:200", "1bit*", "1bit*:100",
                      "terngrad:bucket=1000", "terngrad:bucket=24,clip=2.5"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name;
      for (const char* c = info.param; *c != '\0'; ++c) {
        name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return name;
    });

// The alignment is a whole number of buckets and of packed words.
TEST(RangeAlignmentTest, CoversWholeBucketsAndWords) {
  EXPECT_EQ(MakeCodec("q4:512")->RangeAlignment(Shape({1})), 512);
  EXPECT_EQ(MakeCodec("q3:100")->RangeAlignment(Shape({1})), 100);
  EXPECT_EQ(MakeCodec("q3:7")->RangeAlignment(Shape({1})), 70);
  EXPECT_EQ(MakeCodec("1bit*:64")->RangeAlignment(Shape({1})), 64);
  EXPECT_EQ(MakeCodec("1bit*:100")->RangeAlignment(Shape({1})), 800);
  EXPECT_EQ(MakeCodec("terngrad:bucket=24")->RangeAlignment(Shape({1})), 48);
  EXPECT_EQ(MakeCodec("fp32")->RangeAlignment(Shape({1})), 1);
}

// Blobs built from whole-matrix statistics or a per-column layout cannot
// be split; their full range still composes to Encode/Decode.
TEST(RangeAlignmentTest, UnsplittableCodecsTakeTheFullRange) {
  CodecWorkspace workspace;
  const Shape shape({25, 40});
  const int64_t n = shape.element_count();
  for (const char* text : {"1bit", "aq4", "topk:0.25", "terngrad"}) {
    SCOPED_TRACE(text);
    const std::unique_ptr<GradientCodec> codec = MakeCodec(text);
    EXPECT_EQ(codec->RangeAlignment(shape), 0);
    const std::vector<float> grad = TestGradient(n, 0x0ff);
    std::vector<float> error_whole(static_cast<size_t>(n), 0.0f);
    std::vector<float> error_range(static_cast<size_t>(n), 0.0f);
    const bool feedback = codec->UsesErrorFeedback();
    std::vector<uint8_t> whole;
    codec->Encode(grad.data(), shape, 5, feedback ? &error_whole : nullptr,
                  &workspace, &whole);
    std::vector<uint8_t> blob(
        static_cast<size_t>(codec->EncodedSizeBytes(shape)));
    codec->EncodeRange(grad.data(), shape, 5,
                       feedback ? &error_range : nullptr, 0, n, &workspace,
                       blob.data());
    codec_internal::SealWireBlob(
        blob.data(), static_cast<int64_t>(blob.size()) -
                         codec_internal::kWireChecksumBytes);
    EXPECT_EQ(blob, whole);
    EXPECT_EQ(error_range, error_whole);

    std::vector<float> decoded(static_cast<size_t>(n));
    std::vector<float> ranged(static_cast<size_t>(n));
    ASSERT_TRUE(codec->Decode(whole.data(), static_cast<int64_t>(whole.size()),
                              shape, &workspace, decoded.data())
                    .ok());
    ASSERT_TRUE(
        codec->DecodeRange(whole.data(), shape, 0, n, &workspace, ranged.data())
            .ok());
    EXPECT_EQ(0, std::memcmp(decoded.data(), ranged.data(),
                             decoded.size() * sizeof(float)));
  }
}

}  // namespace
}  // namespace lpsgd

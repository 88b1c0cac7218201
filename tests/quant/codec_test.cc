// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/codec.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

TEST(CodecSpecTest, Labels) {
  EXPECT_EQ(FullPrecisionSpec().Label(), "32bit");
  EXPECT_EQ(QsgdSpec(4).Label(), "QSGD 4bit (b=512)");
  EXPECT_EQ(OneBitSgdSpec().Label(), "1bitSGD");
  EXPECT_EQ(OneBitSgdReshapedSpec(64).Label(), "1bitSGD* (b=64)");
  EXPECT_EQ(QsgdSpec(2).ShortLabel(), "Q2");
  EXPECT_EQ(OneBitSgdReshapedSpec().ShortLabel(), "1b*");
}

TEST(CodecSpecTest, PaperBucketSizes) {
  // Section 4.4: 2bit/128, 4bit/512, 8bit/512, 16bit/8192.
  EXPECT_EQ(QsgdSpec(2).bucket_size, 128);
  EXPECT_EQ(QsgdSpec(4).bucket_size, 512);
  EXPECT_EQ(QsgdSpec(8).bucket_size, 512);
  EXPECT_EQ(QsgdSpec(16).bucket_size, 8192);
  EXPECT_EQ(OneBitSgdReshapedSpec().bucket_size, 64);
}

TEST(CreateCodecTest, CreatesEveryKind) {
  for (const CodecSpec& spec :
       {FullPrecisionSpec(), QsgdSpec(2), QsgdSpec(4), QsgdSpec(8),
        QsgdSpec(16), OneBitSgdSpec(), OneBitSgdReshapedSpec(64)}) {
    auto codec = spec.Create();
    ASSERT_TRUE(codec.ok()) << spec.Label();
    EXPECT_FALSE((*codec)->Name().empty());
  }
}

TEST(CreateCodecTest, RejectsInvalidSpecs) {
  CodecSpec bad_bits = QsgdSpec(4);
  bad_bits.bits = 1;
  EXPECT_FALSE(bad_bits.Create().ok());
  bad_bits.bits = 33;
  EXPECT_FALSE(bad_bits.Create().ok());

  CodecSpec bad_bucket = QsgdSpec(4);
  bad_bucket.bucket_size = 0;
  EXPECT_FALSE(bad_bucket.Create().ok());

  CodecSpec bad_reshaped = OneBitSgdReshapedSpec(0);
  EXPECT_FALSE(bad_reshaped.Create().ok());
}

TEST(FullPrecisionCodecTest, RoundTripsExactly) {
  CodecWorkspace workspace;
  auto codec = FullPrecisionSpec().Create();
  ASSERT_TRUE(codec.ok());
  const Shape shape({7, 5});
  Tensor grad(shape);
  Rng rng(1);
  grad.FillGaussian(&rng, 2.0f);

  std::vector<uint8_t> blob;
  (*codec)->Encode(grad.data(), shape, 0, nullptr, &workspace, &blob);
  EXPECT_EQ(static_cast<int64_t>(blob.size()),
            (*codec)->EncodedSizeBytes(shape));
  EXPECT_EQ(blob.size(), 7u * 5u * 4u + 4u);  // payload + checksum word

  std::vector<float> decoded(35);
  CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                   &workspace, decoded.data()));
  for (int64_t i = 0; i < 35; ++i) {
    EXPECT_EQ(decoded[static_cast<size_t>(i)], grad.at(i));
  }
}

// Encoded sizes must match the paper's arithmetic for every codec.
TEST(EncodedSizeTest, QsgdSizeFormula) {
  // n elements at `bits` bits packed into 32-bit words + one float per
  // bucket.
  for (int bits : {2, 4, 8, 16}) {
    auto codec = QsgdSpec(bits).Create();
    ASSERT_TRUE(codec.ok());
    const Shape shape({1000, 100});  // n = 100000
    const int64_t n = 100000;
    const int64_t bucket = QsgdSpec(bits).bucket_size;
    const int64_t buckets = (n + bucket - 1) / bucket;
    const int64_t per_word = 32 / bits;
    const int64_t words = (n + per_word - 1) / per_word;
    EXPECT_EQ((*codec)->EncodedSizeBytes(shape),
              buckets * 4 + words * 4 + codec_internal::kWireChecksumBytes)
        << bits;
  }
}

TEST(EncodedSizeTest, OneBitColumnSizeFormula) {
  auto codec = OneBitSgdSpec().Create();
  ASSERT_TRUE(codec.ok());
  // Dense-like matrix: rows=4096, cols=100: per column 2 floats +
  // ceil(4096/32) words.
  EXPECT_EQ((*codec)->EncodedSizeBytes(Shape({4096, 100})),
            100 * (8 + (4096 / 32) * 4) +
                codec_internal::kWireChecksumBytes);
  // Conv-like matrix: rows=3: per column 2 floats + 1 word = 12 bytes for
  // 3 values — NO compression at all (the Section 3.2 artefact) ...
  const Shape conv({3, 1000});
  EXPECT_EQ((*codec)->EncodedSizeBytes(conv),
            1000 * 12 + codec_internal::kWireChecksumBytes);
  EXPECT_GE((*codec)->EncodedSizeBytes(conv), conv.element_count() * 4);
  // ... and on 1x1 convolutions (rows = 1, e.g. ResNet bottlenecks) the
  // "compressed" form is 3x LARGER than full precision.
  const Shape one_by_one({1, 1000});
  EXPECT_EQ((*codec)->EncodedSizeBytes(one_by_one),
            3 * one_by_one.element_count() * 4 +
                codec_internal::kWireChecksumBytes);
}

TEST(EncodedSizeTest, ReshapedOneBitBeatsColumnVariantOnConvShapes) {
  auto column = OneBitSgdSpec().Create();
  auto reshaped = OneBitSgdReshapedSpec(64).Create();
  ASSERT_TRUE(column.ok());
  ASSERT_TRUE(reshaped.ok());
  const Shape conv({3, 100000});
  EXPECT_LT((*reshaped)->EncodedSizeBytes(conv),
            (*column)->EncodedSizeBytes(conv) / 5);
}

TEST(EncodedSizeTest, CompressionRatiosOrdering) {
  // More bits -> more bytes; all quantized codecs beat full precision on
  // bucket-friendly shapes.
  const Shape shape({512, 512});
  auto fp = FullPrecisionSpec().Create();
  int64_t previous = 0;
  for (int bits : {2, 4, 8, 16}) {
    auto codec = QsgdSpec(bits).Create();
    ASSERT_TRUE(codec.ok());
    const int64_t size = (*codec)->EncodedSizeBytes(shape);
    EXPECT_GT(size, previous) << bits;
    EXPECT_LT(size, (*fp)->EncodedSizeBytes(shape)) << bits;
    previous = size;
  }
}

TEST(NumChunksTest, MatchesBucketAndColumnCounts) {
  auto qsgd = QsgdSpec(4).Create();  // bucket 512
  EXPECT_EQ((*qsgd)->NumChunks(Shape({1024, 2})), 4);  // 2048/512
  EXPECT_EQ((*qsgd)->NumChunks(Shape({513})), 2);      // partial bucket

  auto one_bit = OneBitSgdSpec().Create();
  EXPECT_EQ((*one_bit)->NumChunks(Shape({3, 777})), 777);  // per column

  auto fp = FullPrecisionSpec().Create();
  EXPECT_EQ((*fp)->NumChunks(Shape({1000})), 0);
}

}  // namespace
}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Golden wire-format pins: the exact bytes each codec produces for a fixed
// input. These detect accidental format changes — the blobs are what would
// cross MPI/NCCL between processes of different builds, so the layout is
// part of the public contract. If a change is intentional, regenerate the
// goldens (the fixture below documents the input).
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/simd.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/shape.h"

namespace lpsgd {
namespace {

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

struct GoldenCase {
  const char* spec;
  const char* hex;
};

class WireFormatTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(WireFormatTest, BytesMatchGolden) {
  CodecWorkspace workspace;
  const GoldenCase& c = GetParam();
  auto spec = CodecSpec::Parse(c.spec);
  ASSERT_TRUE(spec.ok());
  auto codec = (*spec).Create();
  ASSERT_TRUE(codec.ok());

  const float grad[8] = {0.5f, -1.0f, 0.25f, 0.0f,
                         2.0f, -0.125f, 1.5f, -2.5f};
  const Shape shape({4, 2});
  std::vector<float> error(8, 0.0f);
  std::vector<uint8_t> blob;
  (*codec)->Encode(grad, shape, /*stochastic_tag=*/7,
                   (*codec)->UsesErrorFeedback() ? &error : nullptr,
                   &workspace, &blob);
  EXPECT_EQ(HexEncode(blob), c.hex) << c.spec;

  // And the blob must decode cleanly, checksum included.
  std::vector<float> decoded(8);
  EXPECT_TRUE((*codec)
                  ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                           shape, &workspace, decoded.data())
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, WireFormatTest,
    ::testing::Values(
        GoldenCase{"32bit",
                   "0000003f000080bf0000803e00000000"
                   "00000040000000be0000c03f000020c0"
                   "68cd9bcb"},
        GoldenCase{"1bit",
                   "0000883f0000000000000000abaa9abf0f00000002000000"
                   "779b8908"},
        GoldenCase{"1bit*:4",
                   "0000803e000080bf0000e03f0000a8bf5d000000173058e8"},
        GoldenCase{"q4:4", "0000803f00002040f40186f41d6dfe13"},
        // TopK k=2: count word, one word of 3-bit packed indices
        // (4 | 7<<3 = 0x3c), two fp32 values, checksum.
        GoldenCase{"topk:0.25",
                   "020000003c00000000000040000020c0"
                   "7b32dbcb"},
        // TernGrad: one fp32 scale (max|g| = 2.5), one word of 2-bit
        // sign-magnitude fields, checksum.
        GoldenCase{"terngrad", "000020400cc90000a69700ae"},
        // NUQSGD: two fp32 L2 bucket norms, one word of 4-bit
        // sign-magnitude fields, checksum.
        GoldenCase{"nuq4:4", "76a4923f616a6240f604a6f62b5d4ac1"},
        // ECQ-SGD with fresh error state is byte-identical to q4:4 —
        // the error-compensation path only diverges on later rounds.
        GoldenCase{"ecq4:4", "0000803f00002040f40186f41d6dfe13"},
        GoldenCase{"aq4:4",
                   "0000803f000020400000000033ce4c3d1f00803ee5ffff3ea39919"
                   "3fdecc4c3fb76d5b3f0000803ff30295f4"
                   "c2c41701"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.spec;
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

// Structural spot-checks that make the formats human-auditable.
TEST(WireFormatTest, OneBitHeaderIsAvgPairs) {
  CodecWorkspace workspace;
  // Columns of {0.5, 0.25, 2.0, 1.5} / {-1, 0, -0.125, -2.5}:
  // col0: avg+ = 1.0625 (0x3f880000 LE), col1 mixes signs.
  auto codec = OneBitSgdSpec().Create();
  const float grad[8] = {0.5f, -1.0f, 0.25f, 0.0f,
                         2.0f, -0.125f, 1.5f, -2.5f};
  std::vector<float> error(8, 0.0f);
  std::vector<uint8_t> blob;
  (*codec)->Encode(grad, Shape({4, 2}), 0, &error, &workspace, &blob);
  float avg_pos_col0;
  std::memcpy(&avg_pos_col0, blob.data(), sizeof(float));
  EXPECT_FLOAT_EQ(avg_pos_col0, (0.5f + 0.25f + 2.0f + 1.5f) / 4.0f);
}

// Golden FNV-1a hashes over a 1000-element Gaussian gradient. The encode
// hashes were re-pinned when the trailing wire-checksum word was added
// (every blob grew by 4 bytes); the decode hashes were unchanged by that
// re-pin, which is the proof the checksum is purely appended and the
// payload numerics did not move. Unlike the short hex goldens above, these
// cover every codec configuration axis — bit widths, bucket sizes, norms,
// level schemes, error feedback on/off — plus a second encode round
// (error-feedback state advanced) and the decoded floats. Any change to
// these hashes is a wire-format or numerics break.
uint64_t Fnv1a64(const uint8_t* bytes, size_t count, uint64_t hash) {
  for (size_t i = 0; i < count; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::vector<float> GoldenGradient(int64_t n) {
  std::vector<float> grad(static_cast<size_t>(n));
  Rng rng(0x601dULL);
  for (int64_t i = 0; i < n; ++i) {
    grad[static_cast<size_t>(i)] = static_cast<float>(rng.NextGaussian());
  }
  // An all-zero stretch exercises the zero-scale buckets.
  for (int64_t i = 64; i < 192 && i < n; ++i) {
    grad[static_cast<size_t>(i)] = 0.0f;
  }
  return grad;
}

struct HashCase {
  const char* name;
  CodecSpec spec;
  uint64_t first_encode;   // blob hash, fresh error-feedback state
  uint64_t second_encode;  // blob hash after one error-feedback round
  uint64_t decode;         // hash of the second blob's decoded floats
};

CodecSpec Qsgd(int bits, int64_t bucket, QsgdNorm norm, QsgdLevelScheme lv) {
  CodecSpec spec = QsgdSpec(bits);
  spec.bucket_size = bucket;
  spec.norm = norm;
  spec.levels = lv;
  return spec;
}

CodecSpec Aqsgd(int bits, int64_t bucket) {
  CodecSpec spec = AdaptiveQsgdSpec(bits);
  spec.bucket_size = bucket;
  return spec;
}

CodecSpec OneBitStar(int64_t bucket, bool ef) {
  CodecSpec spec = OneBitSgdReshapedSpec(bucket);
  spec.error_feedback = ef;
  return spec;
}

CodecSpec OneBitStockNoEf() {
  CodecSpec spec = OneBitSgdSpec();
  spec.error_feedback = false;
  return spec;
}

CodecSpec Nuq(int bits, int64_t bucket) {
  CodecSpec spec = NuqsgdSpec(bits);
  spec.bucket_size = bucket;
  return spec;
}

CodecSpec Ecq(int bits, int64_t bucket, bool ef) {
  CodecSpec spec = EcqSgdSpec(bits);
  spec.bucket_size = bucket;
  spec.error_feedback = ef;
  return spec;
}

std::vector<HashCase> GoldenHashCases() {
  const QsgdNorm kL2 = QsgdNorm::kL2;
  const QsgdNorm kMax = QsgdNorm::kMax;
  const QsgdLevelScheme kSm = QsgdLevelScheme::kSignMagnitude;
  const QsgdLevelScheme kSy = QsgdLevelScheme::kSymmetric;
  return {
      {"fp32", FullPrecisionSpec(), 0x299194db1d24f6f0ull,
       0x299194db1d24f6f0ull, 0xaf93c47a0c76c421ull},
      {"one_bit_stock", OneBitSgdSpec(), 0xf56198ae42d6e70bull,
       0xf769bf64c5f94ccbull, 0x5f39fe8ff9f22340ull},
      {"one_bit_stock_no_ef", OneBitStockNoEf(), 0xf56198ae42d6e70bull,
       0xf56198ae42d6e70bull, 0x5c4063dde9689f54ull},
      {"one_bit_star_b4", OneBitStar(4, true), 0xab4bfed3dc7c1269ull,
       0xedcc633860940786ull, 0xa74a8ee571f945b6ull},
      {"one_bit_star_b64", OneBitStar(64, true), 0x59c9b0434ac5121full,
       0x8b8deb82a5691354ull, 0xfcf4f451350afa1aull},
      {"one_bit_star_b512", OneBitStar(512, true), 0xf9c26e14fd71069cull,
       0x3082dd794e9176aaull, 0xc373d9f024358031ull},
      {"one_bit_star_b64_no_ef", OneBitStar(64, false),
       0x59c9b0434ac5121full, 0x59c9b0434ac5121full, 0x1bb1136ab82022e5ull},
      {"qsgd2_b4", Qsgd(2, 4, kMax, kSm), 0x3ba3290c9e6b7b98ull,
       0xa29abda4e6127447ull, 0x17791ad3e91dd031ull},
      {"qsgd2_b512", Qsgd(2, 512, kMax, kSm), 0xcc41b8f1106e8563ull,
       0xa00c91a506d5c84dull, 0xacd280886a338a55ull},
      {"qsgd4_b4", Qsgd(4, 4, kMax, kSm), 0x40b0592cec33212cull,
       0x15a5795cc8ee57f5ull, 0x7806b4a5eee37e3cull},
      {"qsgd4_b512", Qsgd(4, 512, kMax, kSm), 0xd80cd8e4816ddd22ull,
       0x06df07661878eda6ull, 0x4cdd07a6ecfa30baull},
      {"qsgd8_b4", Qsgd(8, 4, kMax, kSm), 0x41a4c5418f3dc8b1ull,
       0xf606b1c4e5e9e4bcull, 0x1d25ad3fcfcafa9dull},
      {"qsgd8_b512", Qsgd(8, 512, kMax, kSm), 0xd2c65725b72a3b97ull,
       0xb3c2ef9c1697d42aull, 0x137aeec0d48f1ec8ull},
      {"qsgd16_b4", Qsgd(16, 4, kMax, kSm), 0xdbe2e3279e7aa59full,
       0x033362533dce2a89ull, 0x8c0994e648d448bfull},
      {"qsgd16_b512", Qsgd(16, 512, kMax, kSm), 0xffd25851f5dd1618ull,
       0x701a4ebedecacf3eull, 0x2230b5c9da3b3145ull},
      {"qsgd4_b512_l2", Qsgd(4, 512, kL2, kSm), 0x1b032d0573b9f0edull,
       0xc94ea8965894fd57ull, 0x696ec9b2ad483ccbull},
      {"qsgd4_b512_sym", Qsgd(4, 512, kMax, kSy), 0xcff94e29df85a96aull,
       0x93685df85fef8b78ull, 0x10ce238d72465bf2ull},
      {"qsgd4_b512_l2_sym", Qsgd(4, 512, kL2, kSy), 0x038dab3432ad221bull,
       0xb0ec8a55bbd07dd8ull, 0x5b78260b1c92592bull},
      {"aqsgd2_b4", Aqsgd(2, 4), 0xb75bf7f9761681a3ull,
       0x9ccd4d8cec53cd36ull, 0x17791ad3e91dd031ull},
      {"aqsgd2_b512", Aqsgd(2, 512), 0x6b58a59ce390ad18ull,
       0x980619a3d1a55864ull, 0xacd280886a338a55ull},
      {"aqsgd4_b4", Aqsgd(4, 4), 0xafed163783deb4dbull,
       0x3c12fbe4adf9fc3full, 0x39f515b537fc3af0ull},
      {"aqsgd4_b512", Aqsgd(4, 512), 0xeae5d05cd6c49c3eull,
       0xd602933df7227853ull, 0x89a885af2bf1816bull},
      {"aqsgd8_b4", Aqsgd(8, 4), 0x7c32d78e2544ff8cull,
       0x141f63e16ae8b91full, 0x0b00118c33dbe14aull},
      {"aqsgd8_b512", Aqsgd(8, 512), 0x78055c7652eafce8ull,
       0xb95af7c32f113396ull, 0xd74604fc29808050ull},
      // The TopK rows were re-pinned when the sparse wire format switched
      // from raw uint32 indices to bit-packed index runs; the decode
      // hashes were unchanged by that re-pin (same kept components, same
      // values), which is the proof the packing is lossless.
      {"topk_1pct", TopKSpec(0.01), 0xe48de1a905ea611cull,
       0x3eabbd659e20affeull, 0x19a7c97bcb3b2abaull},
      {"topk_25pct", TopKSpec(0.25), 0xcf5f142a82223376ull,
       0xb6a267185c00f682ull, 0xc5201dae81b8c8b3ull},
      // Density 1.0 decode must stay lossless: same hash as fp32's.
      {"topk_100pct", TopKSpec(1.0), 0xdf53312c19258bc6ull,
       0xdf53312c19258bc6ull, 0xaf93c47a0c76c421ull},
      {"terngrad", TernGradSpec(), 0xe65183ed64194317ull,
       0xd01581652aaed8fdull, 0x2336cdd7289c33c9ull},
      {"terngrad_b256", TernGradSpec(256), 0x8533777c5e8e6cc6ull,
       0x77fb2c5cdd5ae5abull, 0xe3fb2cbb43acbb28ull},
      {"terngrad_clip", TernGradSpec(0, 2.5), 0xbeaebf1efe0b2b92ull,
       0x2f93033854de4501ull, 0x3fb5b4a55d29eb7dull},
      {"nuq4_b4", Nuq(4, 4), 0xd5de8f1d980c1d18ull,
       0x814e389fd97dc453ull, 0xd1eb2fd3f823a78bull},
      {"nuq4_b512", Nuq(4, 512), 0x223424d9eef4316cull,
       0x85661234913392e0ull, 0x298c49bca796ccedull},
      {"nuq8_b512", Nuq(8, 512), 0xe19c77fb2be6fa79ull,
       0xb8d0c3711eedce8full, 0x7cb79bc0a03089b6ull},
      // ECQ-SGD's first encode (fresh error state) is byte-identical to
      // the matching QSGD row; the second encode diverges because the
      // quantization residual feeds back into the corrected gradient.
      {"ecq4_b4", Ecq(4, 4, true), 0x40b0592cec33212cull,
       0xed4bb5c670fcd1ccull, 0xad095da71ae718adull},
      {"ecq4_b512", Ecq(4, 512, true), 0xd80cd8e4816ddd22ull,
       0xbd234ecb9ee5c408ull, 0xf435135012726920ull},
      // With error feedback off, ECQ-SGD degenerates to exactly QSGD
      // (same blobs, same decode) — pinned to the qsgd4_b512 hashes.
      {"ecq4_b512_no_ef", Ecq(4, 512, false), 0xd80cd8e4816ddd22ull,
       0x06df07661878eda6ull, 0x4cdd07a6ecfa30baull},
      {"ecq8_b512", Ecq(8, 512, true), 0xd2c65725b72a3b97ull,
       0x71329802f8106f35ull, 0x87e7d37275ae1f40ull},
  };
}

void VerifyGoldenBlobHashes() {
  CodecWorkspace workspace;
  const int64_t n = 1000;
  const Shape shape({25, 40});
  const std::vector<float> grad = GoldenGradient(n);

  for (const HashCase& c : GoldenHashCases()) {
    SCOPED_TRACE(c.name);
    auto codec = c.spec.Create();
    ASSERT_TRUE(codec.ok());
    std::vector<float> error(static_cast<size_t>(n), 0.0f);
    std::vector<float>* error_ptr =
        (*codec)->UsesErrorFeedback() ? &error : nullptr;
    std::vector<uint8_t> blob;
    // Round 1 seeds the error-feedback state; round 2's blob depends on it.
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/12345, error_ptr,
                     &workspace, &blob);
    const uint64_t h1 = Fnv1a64(blob.data(), blob.size(), kFnvBasis);
    EXPECT_EQ(h1, c.first_encode);
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/12346, error_ptr,
                     &workspace, &blob);
    const uint64_t h2 = Fnv1a64(blob.data(), blob.size(), kFnvBasis);
    EXPECT_EQ(h2, c.second_encode);
    std::vector<float> decoded(static_cast<size_t>(n));
    ASSERT_TRUE((*codec)
                    ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                             shape, &workspace, decoded.data())
                    .ok());
    const uint64_t h3 =
        Fnv1a64(reinterpret_cast<const uint8_t*>(decoded.data()),
                decoded.size() * sizeof(float), kFnvBasis);
    EXPECT_EQ(h3, c.decode);
  }
}

TEST(WireFormatTest, GoldenBlobHashes) { VerifyGoldenBlobHashes(); }

// The same golden hashes must hold under every forced dispatch mode: the
// SIMD kernels are a pure speedup, never a wire or numerics change. An
// unsupported ISA (e.g. neon on x86) resolves to the scalar tables, so the
// loop is safe to run on any host.
TEST(WireFormatTest, GoldenBlobHashesUnderEveryDispatchMode) {
  for (const SimdIsa isa :
       {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimdIsa force(isa);
    VerifyGoldenBlobHashes();
  }
}

// Corrupted-wire fuzz: every codec must reject a damaged blob with a
// non-OK Status — never crash, never emit NaN/Inf, never touch the output
// buffer. The trailing FNV-1a word makes this deterministic: a single-bit
// flip anywhere in the blob is guaranteed to change the computed hash (each
// byte step of FNV-1a is injective in the running hash), so Decode must
// fail on all of these, not just most.
TEST(WireFormatTest, CorruptedBlobsAreRejected) {
  CodecWorkspace workspace;
  const int64_t n = 1000;
  const Shape shape({25, 40});
  const std::vector<float> grad = GoldenGradient(n);
  const char* kSpecs[] = {"32bit", "1bit",      "1bit*:64", "q4",
                          "aq4",   "topk:0.25", "terngrad", "nuq4",
                          "ecq4"};

  for (const char* spec_str : kSpecs) {
    SCOPED_TRACE(spec_str);
    auto spec = CodecSpec::Parse(spec_str);
    ASSERT_TRUE(spec.ok());
    auto codec = (*spec).Create();
    ASSERT_TRUE(codec.ok());
    std::vector<float> error(static_cast<size_t>(n), 0.0f);
    std::vector<uint8_t> blob;
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/99,
                     (*codec)->UsesErrorFeedback() ? &error : nullptr,
                     &workspace, &blob);

    const float kSentinel = -12345.0f;
    std::vector<float> out(static_cast<size_t>(n), kSentinel);
    const auto expect_rejected = [&](const std::vector<uint8_t>& bytes,
                                     int64_t size, const char* what) {
      CodecWorkspace workspace;
      SCOPED_TRACE(what);
      const Status status = (*codec)->Decode(
          bytes.empty() ? blob.data() : bytes.data(), size, shape,
          &workspace, out.data());
      EXPECT_FALSE(status.ok());
      for (float v : out) {
        ASSERT_EQ(v, kSentinel) << "Decode wrote output despite failing";
      }
    };

    // Zero-length and truncated blobs (losing part or all of the
    // checksum, or part of the payload).
    expect_rejected({}, 0, "zero-length");
    expect_rejected(blob, static_cast<int64_t>(blob.size()) - 1,
                    "truncated by 1");
    expect_rejected(blob, static_cast<int64_t>(blob.size()) - 4,
                    "checksum stripped");
    expect_rejected(blob, static_cast<int64_t>(blob.size()) / 2,
                    "half blob");

    // Single-bit flips sampled across the blob, plus first and last bits
    // (the last bits live in the checksum word itself).
    const uint64_t total_bits = static_cast<uint64_t>(blob.size()) * 8;
    Rng rng(0xb17f11bULL);
    std::vector<uint64_t> bits = {0, total_bits - 1};
    for (int i = 0; i < 64; ++i) {
      bits.push_back(rng.NextUint64(total_bits));
    }
    for (uint64_t bit : bits) {
      std::vector<uint8_t> flipped = blob;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      expect_rejected(flipped, static_cast<int64_t>(flipped.size()),
                      "bit flip");
    }

    // An all-zero blob of the right size (e.g. an uninitialized buffer).
    const std::vector<uint8_t> zeros(blob.size(), 0);
    expect_rejected(zeros, static_cast<int64_t>(zeros.size()), "all zeros");

    // The pristine blob still decodes after all that.
    EXPECT_TRUE((*codec)
                    ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                             shape, &workspace, out.data())
                    .ok());
  }
}

TEST(WireFormatTest, TopKHeaderIsCount) {
  CodecWorkspace workspace;
  auto codec = TopKSpec(0.25).Create();
  const float grad[8] = {0.5f, -1.0f, 0.25f, 0.0f,
                         2.0f, -0.125f, 1.5f, -2.5f};
  std::vector<float> error(8, 0.0f);
  std::vector<uint8_t> blob;
  (*codec)->Encode(grad, Shape({4, 2}), 0, &error, &workspace, &blob);
  uint32_t count;
  std::memcpy(&count, blob.data(), sizeof(uint32_t));
  EXPECT_EQ(count, 2u);  // 25% of 8
}

}  // namespace
}  // namespace lpsgd

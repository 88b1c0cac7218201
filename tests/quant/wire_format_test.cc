// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Golden wire-format pins: the exact bytes each codec produces for a fixed
// input. These detect accidental format changes — the blobs are what would
// cross MPI/NCCL between processes of different builds, so the layout is
// part of the public contract. If a change is intentional, regenerate the
// goldens (the fixture below documents the input).
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "base/simd/simd.h"
#include "canonical_spec.h"
#include "quant/codec.h"
#include "quant/registry.h"
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
                   "21342d29"},
        GoldenCase{"1bit",
                   "0000883f0000000000000000abaa9abf0f00000002000000"
                   "c5d96d4a"},
        GoldenCase{"1bit*:4",
                   "0000803e000080bf0000e03f0000a8bf5d00000026adb242"},
        GoldenCase{"q4:4", "0000803f00002040f40186f4f4e909bc"},
        // TopK k=2: count word, one word of 3-bit packed indices
        // (4 | 7<<3 = 0x3c), two fp32 values, checksum.
        GoldenCase{"topk:0.25",
                   "020000003c00000000000040000020c0"
                   "0bb70c48"},
        // TernGrad: one fp32 scale (max|g| = 2.5), one word of 2-bit
        // sign-magnitude fields, checksum.
        GoldenCase{"terngrad", "000020400cc900009dc7b962"},
        // NUQSGD: two fp32 L2 bucket norms, one word of 4-bit
        // sign-magnitude fields, checksum.
        GoldenCase{"nuq4:4", "76a4923f616a6240f604a6f6a48e5d08"},
        // ECQ-SGD with fresh error state is byte-identical to q4:4 —
        // the error-compensation path only diverges on later rounds.
        GoldenCase{"ecq4:4", "0000803f00002040f40186f4f4e909bc"},
        GoldenCase{"aq4:4",
                   "0000803f000020400000000033ce4c3d1f00803ee5ffff3ea39919"
                   "3fdecc4c3fb76d5b3f0000803ff30295f4"
                   "2299ec45"}),
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
// (every blob grew by 4 bytes), and again when that word switched from
// FNV-1a-32 to CRC-32C; the decode hashes were unchanged by both re-pins,
// which is the proof the checksum is purely appended and the payload
// numerics did not move. Unlike the short hex goldens above, these
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
      {"fp32", FullPrecisionSpec(), 0x589169e23222e67full,
       0x589169e23222e67full, 0xaf93c47a0c76c421ull},
      {"one_bit_stock", OneBitSgdSpec(), 0xf57e582e6c75e8ebull,
       0x4a432e5685e90361ull, 0x5f39fe8ff9f22340ull},
      {"one_bit_stock_no_ef", OneBitStockNoEf(), 0xf57e582e6c75e8ebull,
       0xf57e582e6c75e8ebull, 0x5c4063dde9689f54ull},
      {"one_bit_star_b4", OneBitStar(4, true), 0xc70670b00748e6eeull,
       0xefdff6b4f32b381dull, 0xa74a8ee571f945b6ull},
      {"one_bit_star_b64", OneBitStar(64, true), 0x8bbcfb54a13f109bull,
       0x9be5569323fb433dull, 0xfcf4f451350afa1aull},
      {"one_bit_star_b512", OneBitStar(512, true), 0xfa6b06b2e5ca82f4ull,
       0xde333274d4f64707ull, 0xc373d9f024358031ull},
      {"one_bit_star_b64_no_ef", OneBitStar(64, false),
       0x8bbcfb54a13f109bull, 0x8bbcfb54a13f109bull, 0x1bb1136ab82022e5ull},
      {"qsgd2_b4", Qsgd(2, 4, kMax, kSm), 0x3452d34b717d8e91ull,
       0x09656656ebc22acdull, 0x17791ad3e91dd031ull},
      {"qsgd2_b512", Qsgd(2, 512, kMax, kSm), 0x859f53f73a608425ull,
       0x376ff2f71775741bull, 0xacd280886a338a55ull},
      {"qsgd4_b4", Qsgd(4, 4, kMax, kSm), 0x03bfc61e0b9c658dull,
       0xbef6c2831ed8b7fdull, 0x7806b4a5eee37e3cull},
      {"qsgd4_b512", Qsgd(4, 512, kMax, kSm), 0x1bdf6336df61eeaaull,
       0x05cf3b836dc66d7eull, 0x4cdd07a6ecfa30baull},
      {"qsgd8_b4", Qsgd(8, 4, kMax, kSm), 0xc29a2d507a48335cull,
       0xaace47a4083af1c2ull, 0x1d25ad3fcfcafa9dull},
      {"qsgd8_b512", Qsgd(8, 512, kMax, kSm), 0x7ede99fa2e6b8d99ull,
       0x3699979be2b53f41ull, 0x137aeec0d48f1ec8ull},
      {"qsgd16_b4", Qsgd(16, 4, kMax, kSm), 0x7fde54dba45af2b9ull,
       0xbbebf93fcad63d9cull, 0x8c0994e648d448bfull},
      {"qsgd16_b512", Qsgd(16, 512, kMax, kSm), 0x6311b3e4bd59eb03ull,
       0x025be4671c2a1d0bull, 0x2230b5c9da3b3145ull},
      {"qsgd4_b512_l2", Qsgd(4, 512, kL2, kSm), 0x5c16478948dbf9d2ull,
       0xf3c2c7258319504dull, 0x696ec9b2ad483ccbull},
      {"qsgd4_b512_sym", Qsgd(4, 512, kMax, kSy), 0x18e507b818fe7f55ull,
       0xd9deba06f618862bull, 0x10ce238d72465bf2ull},
      {"qsgd4_b512_l2_sym", Qsgd(4, 512, kL2, kSy), 0x92d149957b15dea7ull,
       0xc40909571b4fd28dull, 0x5b78260b1c92592bull},
      {"aqsgd2_b4", Aqsgd(2, 4), 0x13528e2e623ba71eull,
       0x4040d68ab1021df2ull, 0x17791ad3e91dd031ull},
      {"aqsgd2_b512", Aqsgd(2, 512), 0x0d095a2f13d33aceull,
       0x172d0eaec9122544ull, 0xacd280886a338a55ull},
      {"aqsgd4_b4", Aqsgd(4, 4), 0xa9dde5e23577e860ull,
       0x384cc3515774ff10ull, 0x39f515b537fc3af0ull},
      {"aqsgd4_b512", Aqsgd(4, 512), 0x719a4984a6654b18ull,
       0x783c70769264c3cfull, 0x89a885af2bf1816bull},
      {"aqsgd8_b4", Aqsgd(8, 4), 0xa378564748dabfe7ull,
       0xa78ccf73ce5c8591ull, 0x0b00118c33dbe14aull},
      {"aqsgd8_b512", Aqsgd(8, 512), 0x1b107266e1c87682ull,
       0xad226d4fc28443eeull, 0xd74604fc29808050ull},
      // The TopK rows were re-pinned when the sparse wire format switched
      // from raw uint32 indices to bit-packed index runs; the decode
      // hashes were unchanged by that re-pin (same kept components, same
      // values), which is the proof the packing is lossless.
      {"topk_1pct", TopKSpec(0.01), 0x89f732d192fe2b1aull,
       0xf0f3f65dfd9554aaull, 0x19a7c97bcb3b2abaull},
      {"topk_25pct", TopKSpec(0.25), 0x8e0a18c31d95d72aull,
       0x2b396f46e4b0fd25ull, 0xc5201dae81b8c8b3ull},
      // Density 1.0 decode must stay lossless: same hash as fp32's.
      {"topk_100pct", TopKSpec(1.0), 0x3eeefbf443b5ff54ull,
       0x3eeefbf443b5ff54ull, 0xaf93c47a0c76c421ull},
      {"terngrad", TernGradSpec(), 0x5976c94323a47c79ull,
       0xd3021d3056e8ca38ull, 0x2336cdd7289c33c9ull},
      {"terngrad_b256", TernGradSpec(256), 0x643db1d33622728aull,
       0xda49293ae2ab79a7ull, 0xe3fb2cbb43acbb28ull},
      {"terngrad_clip", TernGradSpec(0, 2.5), 0x9f3f2c3cd342af92ull,
       0xae42052a81bb6317ull, 0x3fb5b4a55d29eb7dull},
      {"nuq4_b4", Nuq(4, 4), 0xfb6b79f532a48c44ull,
       0x091ffd052bd392f1ull, 0xd1eb2fd3f823a78bull},
      {"nuq4_b512", Nuq(4, 512), 0x4bd80860ad1eef8bull,
       0x24c9599285a99067ull, 0x298c49bca796ccedull},
      {"nuq8_b512", Nuq(8, 512), 0x503734e4334c7ac4ull,
       0x19ec87ef2e672c82ull, 0x7cb79bc0a03089b6ull},
      // ECQ-SGD's first encode (fresh error state) is byte-identical to
      // the matching QSGD row; the second encode diverges because the
      // quantization residual feeds back into the corrected gradient.
      {"ecq4_b4", Ecq(4, 4, true), 0x03bfc61e0b9c658dull,
       0x20d5eef72f33a3c8ull, 0xad095da71ae718adull},
      {"ecq4_b512", Ecq(4, 512, true), 0x1bdf6336df61eeaaull,
       0x38fea89105a8c209ull, 0xf435135012726920ull},
      // With error feedback off, ECQ-SGD degenerates to exactly QSGD
      // (same blobs, same decode) — pinned to the qsgd4_b512 hashes.
      {"ecq4_b512_no_ef", Ecq(4, 512, false), 0x1bdf6336df61eeaaull,
       0x05cf3b836dc66d7eull, 0x4cdd07a6ecfa30baull},
      {"ecq8_b512", Ecq(8, 512, true), 0x7ede99fa2e6b8d99ull,
       0xa74ac8a72639a6f0ull, 0x87e7d37275ae1f40ull},
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
// unsupported ISA (avx2 on a host without it) resolves to the scalar
// tables, so the loop is safe to run on any host.
TEST(WireFormatTest, GoldenBlobHashesUnderEveryDispatchMode) {
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimdIsa force(isa);
    VerifyGoldenBlobHashes();
  }
}

// Every registered codec family at its canonical spec (canonical_spec.h),
// so the corruption tests below cover a new family without edits here.
std::vector<std::unique_ptr<GradientCodec>> EveryFamilyCodec() {
  std::vector<std::unique_ptr<GradientCodec>> codecs;
  for (const std::string& name : CodecRegistry::Global().Names()) {
    StatusOr<CodecSpec> spec = CanonicalSpec(name);
    if (!spec.ok()) {
      ADD_FAILURE() << "no canonical spelling for codec family " << name
                    << ": " << spec.status();
      continue;
    }
    auto codec = spec->Create();
    CHECK_OK(codec.status());
    codecs.push_back(std::move(*codec));
  }
  return codecs;
}

// Decodes `size` bytes of `bytes` into `out` (pre-filled with `sentinel`)
// and reports whether Decode failed with DataLoss without writing `out`.
bool RejectedUntouched(const GradientCodec& codec, const uint8_t* bytes,
                       int64_t size, const Shape& shape, float sentinel,
                       std::vector<float>* out) {
  CodecWorkspace workspace;
  const Status status = codec.Decode(bytes, size, shape, &workspace,
                                     out->data());
  if (status.code() != StatusCode::kDataLoss) return false;
  for (const float v : *out) {
    if (std::bit_cast<uint32_t>(v) != std::bit_cast<uint32_t>(sentinel)) {
      return false;
    }
  }
  return true;
}

// Corrupted-wire fuzz: every codec must reject a damaged blob with
// DataLoss — never crash, never emit NaN/Inf, never touch the output
// buffer. Sampled over a 1000-element blob; the exhaustive single-bit and
// burst sweep over a small blob follows.
TEST(WireFormatTest, CorruptedBlobsAreRejected) {
  CodecWorkspace workspace;
  const int64_t n = 1000;
  const Shape shape({25, 40});
  const std::vector<float> grad = GoldenGradient(n);

  for (const auto& codec : EveryFamilyCodec()) {
    SCOPED_TRACE(codec->Name());
    std::vector<float> error(static_cast<size_t>(n), 0.0f);
    std::vector<uint8_t> blob;
    codec->Encode(grad.data(), shape, /*stochastic_tag=*/99,
                  codec->UsesErrorFeedback() ? &error : nullptr, &workspace,
                  &blob);

    const float kSentinel = -12345.0f;
    std::vector<float> out(static_cast<size_t>(n), kSentinel);
    const auto expect_rejected = [&](const std::vector<uint8_t>& bytes,
                                     int64_t size, const char* what) {
      EXPECT_TRUE(RejectedUntouched(
          *codec, bytes.empty() ? blob.data() : bytes.data(), size, shape,
          kSentinel, &out))
          << what;
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

    // An all-zero blob of the right size (e.g. an uninitialized buffer):
    // with CRC-32C's nonzero init and final xor, zeros never carry a valid
    // word.
    const std::vector<uint8_t> zeros(blob.size(), 0);
    expect_rejected(zeros, static_cast<int64_t>(zeros.size()), "all zeros");

    // The pristine blob still decodes after all that.
    EXPECT_TRUE(codec
                    ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                             shape, &workspace, out.data())
                    .ok());
  }
}

// The CRC-32C detection guarantee, checked exhaustively on a small blob of
// every codec family: every single-bit flip, and every burst of 2 to 32
// bits at every start bit (first and last bit flipped, seeded bits between)
// must fail with DataLoss and leave the output untouched. Bit i is bit
// i % 8 of byte i / 8, the order the reflected CRC consumes the blob in,
// so these bursts are contiguous in the checked polynomial, trailing word
// included.
TEST(WireFormatTest, EverySingleBitFlipAndShortBurstIsRejected) {
  CodecWorkspace workspace;
  const Shape shape({8, 8});
  const std::vector<float> grad = GoldenGradient(shape.element_count());
  const float kSentinel = -12345.0f;

  for (const auto& codec : EveryFamilyCodec()) {
    SCOPED_TRACE(codec->Name());
    std::vector<float> error(static_cast<size_t>(shape.element_count()),
                             0.0f);
    std::vector<uint8_t> blob;
    codec->Encode(grad.data(), shape, /*stochastic_tag=*/99,
                  codec->UsesErrorFeedback() ? &error : nullptr, &workspace,
                  &blob);
    std::vector<float> out(static_cast<size_t>(shape.element_count()),
                           kSentinel);
    const int64_t size = static_cast<int64_t>(blob.size());
    const int64_t total_bits = size * 8;
    const auto flip = [&](int64_t bit) {
      blob[static_cast<size_t>(bit / 8)] ^=
          static_cast<uint8_t>(1u << (bit % 8));
    };

    Rng rng(0xb0257ULL);
    int64_t accepted = 0;
    for (int64_t length = 1; length <= 32; ++length) {
      for (int64_t start = 0; start + length <= total_bits; ++start) {
        // Bit j of `pattern` flips bit start + j.
        uint64_t pattern = rng.NextUint64() & ((uint64_t{1} << length) - 1);
        pattern |= uint64_t{1} | (uint64_t{1} << (length - 1));
        for (int64_t j = 0; j < length; ++j) {
          if ((pattern >> j) & 1) flip(start + j);
        }
        if (!RejectedUntouched(*codec, blob.data(), size, shape, kSentinel,
                               &out) &&
            ++accepted <= 5) {
          ADD_FAILURE() << "burst of " << length << " bits at bit " << start
                        << " (pattern 0x" << std::hex << pattern << std::dec
                        << ") was not rejected";
        }
        for (int64_t j = 0; j < length; ++j) {
          if ((pattern >> j) & 1) flip(start + j);
        }
      }
    }
    EXPECT_EQ(accepted, 0);

    // The sweep restored every bit: the pristine blob still decodes.
    EXPECT_TRUE(codec->Decode(blob.data(), size, shape, &workspace,
                              out.data())
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

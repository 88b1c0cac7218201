// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "quant/codec.h"

namespace lpsgd {
namespace {

TEST(ParseCodecSpecTest, FullPrecision) {
  for (const char* text : {"32bit", "fp32", "FP32", "32BIT"}) {
    auto spec = CodecSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    EXPECT_EQ(spec->kind, CodecKind::kFullPrecision);
  }
}

TEST(ParseCodecSpecTest, OneBitVariants) {
  auto stock = CodecSpec::Parse("1bit");
  ASSERT_TRUE(stock.ok());
  EXPECT_EQ(stock->kind, CodecKind::kOneBitSgd);

  auto stock_long = CodecSpec::Parse("1bitsgd");
  ASSERT_TRUE(stock_long.ok());
  EXPECT_EQ(stock_long->kind, CodecKind::kOneBitSgd);

  auto reshaped = CodecSpec::Parse("1bit*");
  ASSERT_TRUE(reshaped.ok());
  EXPECT_EQ(reshaped->kind, CodecKind::kOneBitSgdReshaped);
  EXPECT_EQ(reshaped->bucket_size, 64);

  auto bucketed = CodecSpec::Parse("1bit*:512");
  ASSERT_TRUE(bucketed.ok());
  EXPECT_EQ(bucketed->bucket_size, 512);
}

TEST(ParseCodecSpecTest, Qsgd) {
  auto q4 = CodecSpec::Parse("q4");
  ASSERT_TRUE(q4.ok());
  EXPECT_EQ(q4->kind, CodecKind::kQsgd);
  EXPECT_EQ(q4->bits, 4);
  EXPECT_EQ(q4->bucket_size, 512);  // paper default for 4 bits

  auto q2 = CodecSpec::Parse("Q2");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->bucket_size, 128);

  auto custom = CodecSpec::Parse("q8:2048");
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(custom->bits, 8);
  EXPECT_EQ(custom->bucket_size, 2048);

  auto q16 = CodecSpec::Parse("q16");
  ASSERT_TRUE(q16.ok());
  EXPECT_EQ(q16->bucket_size, 8192);
}

TEST(ParseCodecSpecTest, TopK) {
  auto topk = CodecSpec::Parse("topk:0.01");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->kind, CodecKind::kTopK);
  EXPECT_DOUBLE_EQ(topk->density, 0.01);

  auto full = CodecSpec::Parse("topk:1.0");
  ASSERT_TRUE(full.ok());
  EXPECT_DOUBLE_EQ(full->density, 1.0);
}

TEST(ParseCodecSpecTest, TernGrad) {
  auto tern = CodecSpec::Parse("terngrad");
  ASSERT_TRUE(tern.ok());
  EXPECT_EQ(tern->kind, CodecKind::kTernGrad);
  EXPECT_EQ(tern->bits, 2);
  EXPECT_EQ(tern->bucket_size, 0);  // one scalar per matrix
  EXPECT_DOUBLE_EQ(tern->clip, 0.0);

  auto alias = CodecSpec::Parse("tern");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->kind, CodecKind::kTernGrad);

  auto params = CodecSpec::Parse("terngrad:bucket=1024,clip=2.5");
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->bucket_size, 1024);
  EXPECT_DOUBLE_EQ(params->clip, 2.5);

  auto positional = CodecSpec::Parse("tern:256");
  ASSERT_TRUE(positional.ok());
  EXPECT_EQ(positional->bucket_size, 256);
}

TEST(ParseCodecSpecTest, Nuqsgd) {
  auto nuq4 = CodecSpec::Parse("nuq4");
  ASSERT_TRUE(nuq4.ok());
  EXPECT_EQ(nuq4->kind, CodecKind::kNuqsgd);
  EXPECT_EQ(nuq4->bits, 4);
  EXPECT_EQ(nuq4->bucket_size, 512);  // paper default for 4 bits
  EXPECT_EQ(nuq4->norm, QsgdNorm::kL2);  // NUQSGD normalizes by L2

  auto bucketed = CodecSpec::Parse("nuq4:256");
  ASSERT_TRUE(bucketed.ok());
  EXPECT_EQ(bucketed->bucket_size, 256);

  auto keyed = CodecSpec::Parse("nuq8:bucket=1024");
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->bits, 8);
  EXPECT_EQ(keyed->bucket_size, 1024);
}

TEST(ParseCodecSpecTest, EcqSgd) {
  auto ecq4 = CodecSpec::Parse("ecq4");
  ASSERT_TRUE(ecq4.ok());
  EXPECT_EQ(ecq4->kind, CodecKind::kEcqSgd);
  EXPECT_EQ(ecq4->bits, 4);
  EXPECT_EQ(ecq4->bucket_size, 512);
  EXPECT_TRUE(ecq4->error_feedback);

  auto bucketed = CodecSpec::Parse("ecq8:1024");
  ASSERT_TRUE(bucketed.ok());
  EXPECT_EQ(bucketed->bits, 8);
  EXPECT_EQ(bucketed->bucket_size, 1024);
}

TEST(ParseCodecSpecTest, KeyValueGrammar) {
  auto q = CodecSpec::Parse("q4:bucket=512,norm=l2,levels=sym");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->bucket_size, 512);
  EXPECT_EQ(q->norm, QsgdNorm::kL2);
  EXPECT_EQ(q->levels, QsgdLevelScheme::kSymmetric);

  // Positional and keyed forms of the same parameter agree.
  EXPECT_EQ(CodecSpec::Parse("q8:64")->bucket_size,
            CodecSpec::Parse("q8:bucket=64")->bucket_size);
  EXPECT_DOUBLE_EQ(CodecSpec::Parse("topk:0.05")->density,
                   CodecSpec::Parse("topk:density=0.05")->density);
}

TEST(ParseCodecSpecTest, RejectsGarbage) {
  for (const char* text :
       {"", "q", "q1", "q17", "q4:", "q4:-1", "q4:abc", "1bit:64",
        "1bit*:0", "topk", "topk:0", "topk:1.5", "topk:x", "64bit",
        "qsgd", "32bit:4",
        // New-family garbage.
        "nuq", "nuq1", "nuq17", "nuq4:0", "nuq4:abc", "ecq", "ecq1",
        "ecq17", "ecq4:-5", "tern:0", "tern:abc", "terngrad:clip=0",
        "terngrad:clip=-1", "terngrad:clip=x",
        // Malformed key=value grammar.
        "q4:bucket=", "q4:=512", "q4:bucket=64,bucket=128",
        "q4:64,bucket=128", "q4:bucket=64,512", "q4:64,,128",
        "q4:norm=foo", "q4:levels=foo", "q4:density=0.5",
        "topk:density=0.5,0.6", "terngrad:bits=2"}) {
    EXPECT_FALSE(CodecSpec::Parse(text).ok()) << "'" << text << "'";
  }
}

// Parse errors are actionable: they name the offending token and, where
// it helps, list what would have been accepted.
TEST(ParseCodecSpecTest, ErrorsNameOffendingToken) {
  const auto message = [](const char* text) {
    auto spec = CodecSpec::Parse(text);
    EXPECT_FALSE(spec.ok()) << text;
    return spec.ok() ? std::string() : std::string(spec.status().message());
  };
  const auto contains = [](const std::string& haystack, const char* needle) {
    return haystack.find(needle) != std::string::npos;
  };

  // Unknown codec head: names the head and lists every registered codec.
  const std::string unknown = message("zstd4");
  EXPECT_TRUE(contains(unknown, "'zstd4'")) << unknown;
  EXPECT_TRUE(contains(unknown, "registered codecs:")) << unknown;
  for (const char* family :
       {"32bit", "1bit", "1bit*", "q<bits>", "aq<bits>", "nuq<bits>",
        "ecq<bits>", "terngrad", "topk"}) {
    EXPECT_TRUE(contains(unknown, family)) << unknown;
  }

  // Unknown parameter: names the token and the accepted keys.
  const std::string unknown_key = message("q4:density=0.5");
  EXPECT_TRUE(contains(unknown_key, "'density=0.5'")) << unknown_key;
  EXPECT_TRUE(contains(unknown_key, "accepted keys:")) << unknown_key;
  EXPECT_TRUE(contains(unknown_key, "bucket")) << unknown_key;

  // Parameter given to a codec that takes none.
  const std::string no_params = message("32bit:4");
  EXPECT_TRUE(contains(no_params, "takes no parameters")) << no_params;
  EXPECT_TRUE(contains(no_params, "'4'")) << no_params;

  // Repeated key, conflicting positional+keyed, malformed pair, dangling
  // colon: each names the offending piece.
  EXPECT_TRUE(contains(message("q4:bucket=64,bucket=128"),
                       "repeated codec parameter key 'bucket'"));
  const std::string both = message("q4:64,bucket=128");
  EXPECT_TRUE(contains(both, "'bucket'")) << both;
  EXPECT_TRUE(contains(both, "both positionally")) << both;
  EXPECT_TRUE(contains(message("q4:bucket="),
                       "malformed codec parameter 'bucket='"));
  EXPECT_TRUE(contains(message("q4:"), "dangling ':'"));

  // Bad values name the value and what it was supposed to be.
  EXPECT_TRUE(contains(message("q4:abc"), "bad bucket size: abc"));
  EXPECT_TRUE(contains(message("terngrad:clip=x"), "bad TernGrad clip: x"));
  EXPECT_TRUE(contains(message("nuq17"), "bad NUQSGD bits: nuq17"));
  EXPECT_TRUE(
      contains(message("topk:x"), "bad TopK density: x"));
}

// Values the grammar accepts must be values the codec can represent: a
// non-finite double or an out-of-range integer is a parse error that
// names the token, never a codec that aborts or overflows later.
TEST(ParseCodecSpecTest, RejectsUnrepresentableValues) {
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"topk:nan", "bad TopK density: nan"},
      {"topk:density=inf", "bad TopK density: inf"},
      {"terngrad:clip=nan", "bad TernGrad clip: nan"},
      {"terngrad:clip=inf", "bad TernGrad clip: inf"},
      {"q4:bucket=99999999999999999999",
       "bad bucket size: 99999999999999999999"},
      {"q4:2147483648", "bad bucket size: 2147483648"},
      {"1bit*:bucket=2147483648", "bad bucket size: 2147483648"},
      {"q99999999999999999999", "bad QSGD bits: q99999999999999999999"},
  };
  for (const auto& c : kCases) {
    auto spec = CodecSpec::Parse(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_NE(std::string(spec.status().message()).find(c.error),
              std::string::npos)
        << c.text << ": " << spec.status().message();
  }
  // The largest representable bucket still parses and creates.
  auto widest = CodecSpec::Parse("q4:2147483647");
  ASSERT_TRUE(widest.ok());
  EXPECT_TRUE(widest->Create().ok());

  // Create rejects the same values when a spec is built directly.
  EXPECT_FALSE(TopKSpec(std::nan("")).Create().ok());
  EXPECT_FALSE(TernGradSpec(0, std::nan("")).Create().ok());
}

TEST(ParseCodecSpecTest, RoundTripsThroughCreateCodec) {
  for (const char* text :
       {"32bit", "1bit", "1bit*", "1bit*:128", "q2", "q4", "q8:64", "q16",
        "topk:0.05"}) {
    auto spec = CodecSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto codec = (*spec).Create();
    EXPECT_TRUE(codec.ok()) << text;
  }
}

// The members are the primary API; the free functions above are
// forwarders. Both must agree.
TEST(CodecSpecMemberTest, ParseMatchesFreeFunction) {
  for (const char* text : {"32bit", "1bit*", "q4:256", "topk:0.1", "aq4"}) {
    auto member = CodecSpec::Parse(text);
    auto free_fn = CodecSpec::Parse(text);
    ASSERT_TRUE(member.ok()) << text;
    ASSERT_TRUE(free_fn.ok()) << text;
    EXPECT_EQ(member->kind, free_fn->kind) << text;
    EXPECT_EQ(member->bits, free_fn->bits) << text;
    EXPECT_EQ(member->bucket_size, free_fn->bucket_size) << text;
    EXPECT_DOUBLE_EQ(member->density, free_fn->density) << text;
  }
  EXPECT_FALSE(CodecSpec::Parse("64bit").ok());
}

TEST(CodecSpecMemberTest, CreateInstantiatesAndValidates) {
  auto spec = CodecSpec::Parse("q4");
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ((*codec)->Name(), (*spec).Create().value()->Name());

  CodecSpec bad = QsgdSpec(4);
  bad.bits = 99;
  EXPECT_FALSE(bad.Create().ok());
  bad = OneBitSgdReshapedSpec(0);
  EXPECT_FALSE(bad.Create().ok());
}

}  // namespace
}  // namespace lpsgd

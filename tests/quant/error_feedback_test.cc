// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The error-feedback contract (GradientCodec::UsesErrorFeedback /
// EncodeRange): encoding g against the carried residual e produces exactly
// the blob that the same spec's EF-free codec produces on c = g + e, and
// leaves e = c - Decode(blob), bit for bit. It must hold over the whole
// range and over aligned tiles encoded in reverse order, under every ISA,
// for round after round. The rows come from the codec registry, so a new
// error-feedback family is covered without edits here.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
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

struct EfRow {
  std::string text;  // the family name for a canonical row
  CodecSpec spec;
};

// Every registered family whose canonical codec carries a residual, plus
// bucket and density extremes of the known ones.
std::vector<EfRow> ErrorFeedbackRows() {
  std::vector<EfRow> rows;
  for (const std::string& name : CodecRegistry::Global().Names()) {
    StatusOr<CodecSpec> spec = CanonicalSpec(name);
    if (!spec.ok()) {
      ADD_FAILURE() << "no canonical spelling for codec family " << name
                    << ": " << spec.status();
      continue;
    }
    auto codec = spec->Create();
    CHECK_OK(codec.status());
    if ((*codec)->UsesErrorFeedback()) rows.push_back({name, *spec});
  }
  for (const char* text :
       {"ecq4:4", "ecq8:100", "1bit*:4", "topk:0.01", "topk:0.9"}) {
    auto spec = CodecSpec::Parse(text);
    CHECK_OK(spec.status());
    rows.push_back({text, *spec});
  }
  return rows;
}

// Gaussian values around the edge cases the stage must carry exactly: a
// fixed stretch of alternating +0.0/-0.0 runs (zero-scale buckets, the
// same in every round so their residual stays zero), and -0.0 runs and
// subnormals of both signs scattered through the live region.
std::vector<float> EdgeGradient(int64_t n, uint64_t round) {
  std::vector<float> grad(static_cast<size_t>(n));
  Rng rng(0xEF0 + round);
  for (float& g : grad) g = static_cast<float>(rng.NextGaussian());
  const int64_t zeros = std::min<int64_t>(n, 1300);
  for (int64_t i = 0; i < zeros; ++i) {
    grad[static_cast<size_t>(i)] = (i / 7) % 2 == 0 ? 0.0f : -0.0f;
  }
  for (int64_t i = zeros; i + 4 < n; i += 97) {
    grad[static_cast<size_t>(i)] = -0.0f;
    grad[static_cast<size_t>(i + 1)] = -0.0f;
    grad[static_cast<size_t>(i + 2)] = 1e-42f;
    grad[static_cast<size_t>(i + 3)] = -3e-41f;
  }
  return grad;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int64_t CountNegativeZeros(const std::vector<float>& values) {
  return std::count_if(values.begin(), values.end(), [](float v) {
    return v == 0.0f && std::signbit(v);
  });
}

TEST(ErrorFeedbackTest, EveryKnownFamilyIsARow) {
  std::set<std::string> texts;
  for (const EfRow& row : ErrorFeedbackRows()) texts.insert(row.text);
  for (const char* name : {"1bit", "1bit*", "ecq<bits>", "topk"}) {
    EXPECT_EQ(texts.count(name), 1u) << name;
  }
}

TEST(ErrorFeedbackTest, StageMatchesEfFreeCodecOnCorrectedGradient) {
  const Shape shape({25, 401});  // ragged against every alignment
  const int64_t n = shape.element_count();
  const size_t size = static_cast<size_t>(n);
  for (const EfRow& row : ErrorFeedbackRows()) {
    auto codec = row.spec.Create();
    ASSERT_TRUE(codec.ok());
    ASSERT_TRUE((*codec)->UsesErrorFeedback()) << row.text;
    CodecSpec plain_spec = row.spec;
    plain_spec.error_feedback = false;
    auto plain = plain_spec.Create();
    ASSERT_TRUE(plain.ok());
    ASSERT_FALSE((*plain)->UsesErrorFeedback()) << row.text;

    // Aligned tiles of two units, encoded last to first; unsplittable
    // codecs take the full range.
    const int64_t alignment = (*codec)->RangeAlignment(shape);
    std::vector<std::pair<int64_t, int64_t>> tiles;
    const int64_t step = alignment == 0 ? n : 2 * alignment;
    for (int64_t begin = 0; begin < n; begin += step) {
      tiles.emplace_back(begin, std::min(begin + step, n));
    }
    std::reverse(tiles.begin(), tiles.end());

    for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
      ScopedSimdIsa force(isa);
      CodecWorkspace workspace;
      std::vector<float> error_ref(size, 0.0f);
      std::vector<float> error_whole(size, 0.0f);
      std::vector<float> error_tiles(size, 0.0f);
      for (uint64_t round = 0; round < 4; ++round) {
        SCOPED_TRACE(testing::Message() << row.text << " "
                                        << SimdIsaName(isa) << " round "
                                        << round);
        const std::vector<float> grad = EdgeGradient(n, round);
        const uint64_t tag = 100 + round;

        // The reference: the EF-free codec on c = g + e, then c - Q(c).
        std::vector<float> corrected(size);
        for (size_t i = 0; i < size; ++i) {
          corrected[i] = grad[i] + error_ref[i];
        }
        std::vector<uint8_t> expected;
        (*plain)->Encode(corrected.data(), shape, tag, nullptr, &workspace,
                         &expected);
        std::vector<float> decoded(size);
        ASSERT_TRUE((*plain)
                        ->Decode(expected.data(),
                                 static_cast<int64_t>(expected.size()), shape,
                                 &workspace, decoded.data())
                        .ok());
        for (size_t i = 0; i < size; ++i) {
          error_ref[i] = corrected[i] - decoded[i];
        }

        std::vector<uint8_t> whole;
        (*codec)->Encode(grad.data(), shape, tag, &error_whole, &workspace,
                         &whole);
        EXPECT_EQ(whole, expected);
        EXPECT_TRUE(BitwiseEqual(error_whole, error_ref));

        // Each tile's gradient and decode are vectors of exactly its own
        // end - begin floats (range-relative pointers).
        std::vector<uint8_t> tiled(expected.size(), 0xa5);
        for (const auto& [begin, end] : tiles) {
          const std::vector<float> tile_grad(grad.begin() + begin,
                                             grad.begin() + end);
          std::vector<float> tile_decoded(static_cast<size_t>(end - begin));
          (*codec)->EncodeRange(tile_grad.data(), shape, tag, &error_tiles,
                                begin, end, &workspace, tiled.data(),
                                tile_decoded.data());
          EXPECT_EQ(0, std::memcmp(tile_decoded.data(), decoded.data() + begin,
                                   tile_decoded.size() * sizeof(float)))
              << "[" << begin << ", " << end << ")";
        }
        codec_internal::SealWireBlob(
            tiled.data(), static_cast<int64_t>(tiled.size()) -
                              codec_internal::kWireChecksumBytes);
        EXPECT_EQ(tiled, expected);
        EXPECT_TRUE(BitwiseEqual(error_tiles, error_ref));

        // The invariant the stage's c - Decode(c) relies on: from zeroed
        // residuals, no residual is ever -0.0.
        EXPECT_EQ(CountNegativeZeros(error_whole), 0);
      }
    }
  }
}

}  // namespace
}  // namespace lpsgd

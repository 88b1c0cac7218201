// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Bit-exactness of the range-split MPI exchange. MpiReduceBcastAggregator
// runs stages 2 and 3 of the exchange over bucket-aligned tiles of each
// matrix; the per-matrix pipeline it replaced is kept below as the
// reference (the way GemmBitExactTest keeps the scalar Gemm). After two
// consecutive AllReduce calls, every rank's gradient, every rank and owner
// residual, and the CommStats must be memcmp-equal to the reference — for
// every registered codec family, at 1-4 threads, under every ISA, and at
// matrix sizes around the codec's alignment and the engine's tile length.
#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "base/simd/simd.h"
#include "base/thread_pool.h"
#include "comm/allreduce.h"
#include "comm/cost_model.h"
#include "comm/mpi_reduce_bcast.h"
#include "machine/specs.h"
#include "quant/codec.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

constexpr int kRanks = 3;
constexpr int64_t kTile = MpiReduceBcastAggregator::kTileElements;

std::unique_ptr<GradientCodec> MakeCodec(const CodecSpec& spec) {
  auto codec = spec.Create();
  CHECK_OK(codec.status());
  return std::move(*codec);
}

// The historical per-matrix pipeline: the owner decodes each rank's whole
// blob into a dense buffer and sums them in rank order, re-encodes the
// whole aggregate with its persistent residual, and every rank decodes the
// whole broadcast. Bypassed matrices sum in double.
class ReferenceExchange {
 public:
  ReferenceExchange(int num_ranks, const CodecSpec& spec)
      : num_ranks_(num_ranks),
        spec_(spec),
        codec_(MakeCodec(spec)),
        cost_model_(Ec2P2_8xlarge()) {}

  CommStats AllReduce(std::vector<MatrixSlot>* slots, int64_t iteration) {
    CodecWorkspace workspace;
    const int k = num_ranks_;
    const bool identity = spec_.kind == CodecKind::kFullPrecision;
    if (residuals_.size() < slots->size()) residuals_.resize(slots->size());
    CommStats stats;
    for (size_t m = 0; m < slots->size(); ++m) {
      MatrixSlot& slot = (*slots)[m];
      const Shape& shape = slot.quant_shape;
      const int64_t n = shape.element_count();
      const size_t count = static_cast<size_t>(n);
      const int64_t raw_bytes = n * static_cast<int64_t>(sizeof(float));
      stats.raw_bytes += raw_bytes;
      stats.messages += 2;
      if (!slot.quantized || identity) {
        std::vector<double> sum(count, 0.0);
        for (int r = 0; r < k; ++r) {
          for (size_t i = 0; i < count; ++i) sum[i] += slot.rank_grads[r][i];
        }
        for (int r = 0; r < k; ++r) {
          for (size_t i = 0; i < count; ++i) {
            slot.rank_grads[r][i] = static_cast<float>(sum[i]);
          }
        }
        stats.wire_bytes += raw_bytes;
        continue;
      }

      std::vector<float> aggregate(count, 0.0f);
      std::vector<uint8_t> blob;
      const int64_t sparse_count = codec_->SparseCount(shape);
      for (int r = 0; r < k; ++r) {
        codec_->Encode(slot.rank_grads[r], shape,
                       comm_internal::ExchangeRankTag(
                           iteration, static_cast<int64_t>(m), r),
                       codec_->UsesErrorFeedback() ? slot.rank_errors[r]
                                                   : nullptr,
                       &workspace, &blob);
        const int64_t blob_bytes = static_cast<int64_t>(blob.size());
        if (sparse_count > 0) {
          std::vector<uint32_t> indices(static_cast<size_t>(sparse_count));
          std::vector<float> values(static_cast<size_t>(sparse_count));
          CHECK_OK(codec_->DecodeSparse(blob.data(), blob_bytes, shape,
                                        &workspace, indices.data(),
                                        values.data()));
          for (size_t i = 0; i < indices.size(); ++i) {
            aggregate[indices[i]] += values[i];
          }
        } else {
          std::vector<float> decoded(count);
          CHECK_OK(codec_->Decode(blob.data(), blob_bytes, shape,
                                  &workspace, decoded.data()));
          for (size_t i = 0; i < count; ++i) aggregate[i] += decoded[i];
        }
      }

      std::vector<float>* residual = nullptr;
      if (codec_->UsesErrorFeedback()) {
        residual = &residuals_[m];
        if (residual->size() != count) residual->assign(count, 0.0f);
      }
      const int owner = static_cast<int>(m) % k;
      codec_->Encode(aggregate.data(), shape,
                     comm_internal::ExchangeAggregateTag(
                         iteration, static_cast<int64_t>(m), owner),
                     residual, &workspace, &blob);
      std::vector<float> broadcast(count);
      CHECK_OK(codec_->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                              shape, &workspace, broadcast.data()));
      for (int r = 0; r < k; ++r) {
        std::copy(broadcast.begin(), broadcast.end(), slot.rank_grads[r]);
      }
      stats.wire_bytes += static_cast<int64_t>(blob.size());
      stats.encode_seconds +=
          3.0 * cost_model_.QuantKernelSeconds(n, codec_->NumChunks(shape));
    }
    stats.comm_seconds +=
        cost_model_.MpiExchangeSeconds(stats.wire_bytes, stats.messages, k);
    return stats;
  }

  const std::vector<std::vector<float>>& residuals() const {
    return residuals_;
  }

 private:
  int num_ranks_;
  CodecSpec spec_;
  std::unique_ptr<GradientCodec> codec_;
  CommCostModel cost_model_;
  std::vector<std::vector<float>> residuals_;
};

// One matrix of the sweep: its shape and whether the policy quantizes it.
struct MatrixSpec {
  Shape shape;
  bool quantized;
};

// Every rank's gradient and residual for every matrix, plus the slot view
// the aggregators consume.
struct ExchangeState {
  std::vector<std::vector<std::vector<float>>> grads;   // [m][r]
  std::vector<std::vector<std::vector<float>>> errors;  // [m][r]
  std::vector<MatrixSlot> slots;

  explicit ExchangeState(const std::vector<MatrixSpec>& matrices) {
    grads.resize(matrices.size());
    errors.resize(matrices.size());
    slots.resize(matrices.size());
    for (size_t m = 0; m < matrices.size(); ++m) {
      const size_t n =
          static_cast<size_t>(matrices[m].shape.element_count());
      slots[m].quant_shape = matrices[m].shape;
      slots[m].quantized = matrices[m].quantized;
      for (int r = 0; r < kRanks; ++r) {
        grads[m].emplace_back(n);
        errors[m].emplace_back(n, 0.0f);
      }
      for (int r = 0; r < kRanks; ++r) {
        slots[m].rank_grads.push_back(grads[m][r].data());
        slots[m].rank_errors.push_back(&errors[m][r]);
      }
    }
  }

  // Fresh local gradients for `iteration`; residuals carry over.
  void FillGradients(int64_t iteration) {
    for (size_t m = 0; m < grads.size(); ++m) {
      for (int r = 0; r < kRanks; ++r) {
        Rng rng(0x7113ULL + static_cast<uint64_t>(iteration) * 1000003 +
                m * 131 + static_cast<uint64_t>(r));
        for (float& g : grads[m][r]) {
          g = static_cast<float>(rng.NextGaussian());
        }
      }
    }
  }
};

template <typename T>
bool BitsEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// The sweep's matrix sizes for `codec`: 1, the alignment +-1, and the
// engine's tile length for this codec +-1 and a ragged multi-tile size,
// each quantized, plus a bypassed multi-tile matrix on the full-precision
// pipeline. 2-D where the size allows, so stock 1bitSGD sees columns.
std::vector<MatrixSpec> SweepMatrices(const GradientCodec& codec) {
  const int64_t alignment = codec.RangeAlignment(Shape({kTile}));
  const int64_t unit = alignment > 0 ? alignment : 64;
  const int64_t tile = std::max(unit, kTile / unit * unit);
  std::vector<int64_t> sizes = {1,        unit - 1, unit,     unit + 1,
                                tile - 1, tile,     tile + 1, 3 * tile + 17};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  std::vector<MatrixSpec> matrices;
  for (const int64_t n : sizes) {
    if (n < 1) continue;
    matrices.push_back(
        {n % 8 == 0 ? Shape({n / 8, 8}) : Shape({n}), /*quantized=*/true});
  }
  matrices.push_back({Shape({3 * kTile + 17}), /*quantized=*/false});
  return matrices;
}

std::vector<SimdIsa> IsasUnderTest() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (SimdIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Runs two consecutive exchanges of `matrices` through the reference (on
// `reference_isa`) and through the engine at every (ISA, thread count),
// and memcmp-compares gradients, rank and owner residuals, and CommStats.
void ExpectMatchesReference(const char* codec_text,
                            const std::vector<MatrixSpec>& matrices,
                            SimdIsa reference_isa,
                            const std::vector<SimdIsa>& isas,
                            const std::vector<int>& thread_counts) {
  auto spec = CodecSpec::Parse(codec_text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  ExchangeState expected(matrices);
  ReferenceExchange reference(kRanks, *spec);
  std::vector<CommStats> expected_stats;
  {
    ScopedSimdIsa force(reference_isa);
    for (int64_t iteration = 0; iteration < 2; ++iteration) {
      expected.FillGradients(iteration);
      expected_stats.push_back(
          reference.AllReduce(&expected.slots, iteration));
    }
  }

  for (const SimdIsa isa : isas) {
    ScopedSimdIsa force(isa);
    for (const int threads : thread_counts) {
      SCOPED_TRACE(testing::Message() << codec_text << " "
                                      << SimdIsaName(isa) << " threads="
                                      << threads);
      auto aggregator = MpiReduceBcastAggregator::Create(
          kRanks, *spec, Ec2P2_8xlarge(),
          ExecutionContext::WithThreads(threads));
      ASSERT_TRUE(aggregator.ok());
      ExchangeState actual(matrices);
      for (int64_t iteration = 0; iteration < 2; ++iteration) {
        actual.FillGradients(iteration);
        auto stats = (*aggregator)->AllReduce(&actual.slots, iteration);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        EXPECT_EQ(0, std::memcmp(&*stats, &expected_stats[iteration],
                                 sizeof(CommStats)))
            << "CommStats of iteration " << iteration;
      }
      for (size_t m = 0; m < matrices.size(); ++m) {
        for (int r = 0; r < kRanks; ++r) {
          EXPECT_TRUE(BitsEqual(actual.grads[m][r], expected.grads[m][r]))
              << "gradient of matrix " << m << " rank " << r;
          EXPECT_TRUE(BitsEqual(actual.errors[m][r], expected.errors[m][r]))
              << "residual of matrix " << m << " rank " << r;
        }
      }
      std::vector<std::vector<float>> owner_residuals;
      (*aggregator)->ExportExchangeState(&owner_residuals);
      ASSERT_EQ(owner_residuals.size(), reference.residuals().size());
      for (size_t m = 0; m < owner_residuals.size(); ++m) {
        EXPECT_TRUE(BitsEqual(owner_residuals[m], reference.residuals()[m]))
            << "owner residual of matrix " << m;
      }
    }
  }
}

class MpiRangeSplitTest : public ::testing::TestWithParam<const char*> {};

// The reference runs on the scalar kernels; every engine run must
// reproduce it at 1-4 threads under every ISA.
TEST_P(MpiRangeSplitTest, MatchesPerMatrixReferenceBitForBit) {
  auto spec = CodecSpec::Parse(GetParam());
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());
  ExpectMatchesReference(GetParam(), SweepMatrices(**codec), SimdIsa::kScalar,
                         IsasUnderTest(), {1, 2, 3, 4});
}

// A 2^20-element matrix splits into 64 tiles that 4 threads interleave;
// codecs whose blob cannot be split see one tile, which the sweep above
// already covers.
TEST_P(MpiRangeSplitTest, LargeMatrixMatchesReference) {
  auto spec = CodecSpec::Parse(GetParam());
  ASSERT_TRUE(spec.ok());
  auto codec = spec->Create();
  ASSERT_TRUE(codec.ok());
  if ((*codec)->RangeAlignment(Shape({kTile})) == 0) {
    GTEST_SKIP() << "one tile per matrix";
  }
  ExpectMatchesReference(GetParam(),
                         {{Shape({int64_t{1} << 17, 8}), /*quantized=*/true}},
                         ActiveSimdIsa(), {ActiveSimdIsa()}, {4});
}

// Every registered codec family; TernGrad in both its layer-wise and its
// bucketed mode, QSGD also with a ragged bucket that word boundaries do
// not divide.
INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MpiRangeSplitTest,
    ::testing::Values("q2", "q4", "q8", "q3:100", "nuq4", "ecq4", "1bit*",
                      "1bit", "terngrad", "terngrad:bucket=1000", "aq4",
                      "topk:0.25", "fp32"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name;
      for (const char* c = info.param; *c != '\0'; ++c) {
        name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
      }
      return name;
    });

// A tampered blob still fails the exchange with DataLoss after the
// range split — whether the corrupted bytes are a rank's stage-1 blob or
// the owner's aggregate, which is sealed only after every tile has
// advanced the owner residual — and the owner residuals roll back to
// their state before the call.
TEST(MpiRangeSplitFaultTest, TamperedBlobsFailWithOwnerResidualsRolledBack) {
  const std::vector<MatrixSpec> matrices = {
      {Shape({3 * kTile + 17}), true}, {Shape({kTile / 8, 8}), true}};
  for (const char* codec_text : {"ecq4", "1bit*"}) {
    for (const int tampered_rank : {1, -1}) {
      SCOPED_TRACE(testing::Message() << codec_text << " tampered rank "
                                      << tampered_rank);
      auto spec = CodecSpec::Parse(codec_text);
      ASSERT_TRUE(spec.ok());
      auto aggregator = MpiReduceBcastAggregator::Create(
          kRanks, *spec, Ec2P2_8xlarge(), ExecutionContext::WithThreads(2));
      ASSERT_TRUE(aggregator.ok());
      ExchangeState state(matrices);
      state.FillGradients(0);
      ASSERT_TRUE((*aggregator)->AllReduce(&state.slots, 0).ok());
      std::vector<std::vector<float>> before;
      (*aggregator)->ExportExchangeState(&before);

      (*aggregator)->set_wire_tamper([&](int64_t, int64_t matrix, int rank,
                                         uint8_t* data, int64_t size) {
        const bool hit = matrix == 0 && rank == tampered_rank;
        if (hit) data[size / 3] ^= 0x20;
        return hit;
      });
      state.FillGradients(1);
      const auto failed = (*aggregator)->AllReduce(&state.slots, 1);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss)
          << failed.status().ToString();

      std::vector<std::vector<float>> after;
      (*aggregator)->ExportExchangeState(&after);
      ASSERT_EQ(after.size(), before.size());
      for (size_t m = 0; m < after.size(); ++m) {
        EXPECT_TRUE(BitsEqual(after[m], before[m]))
            << "owner residual of matrix " << m << " not rolled back";
      }
    }
  }
}

}  // namespace
}  // namespace lpsgd

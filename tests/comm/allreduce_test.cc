// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/allreduce.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../quant/canonical_spec.h"
#include "base/rng.h"
#include "base/strings.h"
#include "comm/mpi_reduce_bcast.h"
#include "comm/nccl_ring.h"
#include "machine/specs.h"
#include "quant/registry.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

// Builds K random gradients for one matrix and the expected exact sum.
struct TestMatrix {
  Shape shape;
  std::vector<Tensor> rank_grads;
  std::vector<std::vector<float>> rank_errors;
  std::vector<double> exact_sum;
};

TestMatrix MakeMatrix(const Shape& shape, int k, uint64_t seed) {
  TestMatrix m;
  m.shape = shape;
  const int64_t n = shape.element_count();
  m.exact_sum.assign(static_cast<size_t>(n), 0.0);
  Rng rng(seed);
  for (int r = 0; r < k; ++r) {
    Tensor grad(shape);
    grad.FillGaussian(&rng, 1.0f);
    for (int64_t i = 0; i < n; ++i) {
      m.exact_sum[static_cast<size_t>(i)] += grad.at(i);
    }
    m.rank_grads.push_back(std::move(grad));
    m.rank_errors.emplace_back(static_cast<size_t>(n), 0.0f);
  }
  return m;
}

std::vector<MatrixSlot> MakeSlots(std::vector<TestMatrix>& matrices,
                                  int k) {
  std::vector<MatrixSlot> slots;
  for (TestMatrix& m : matrices) {
    MatrixSlot slot;
    slot.quant_shape = m.shape;
    for (int r = 0; r < k; ++r) {
      slot.rank_grads.push_back(m.rank_grads[static_cast<size_t>(r)].data());
      slot.rank_errors.push_back(&m.rank_errors[static_cast<size_t>(r)]);
    }
    slots.push_back(std::move(slot));
  }
  return slots;
}

class AllReduceRankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(AllReduceRankCountTest, MpiFullPrecisionComputesExactSum) {
  const int k = GetParam();
  auto agg = CreateAggregator(CommPrimitive::kMpi, k, FullPrecisionSpec(),
                              Ec2P2_16xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());

  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({13, 7}), k, 1));
  matrices.push_back(MakeMatrix(Shape({64}), k, 2));
  auto slots = MakeSlots(matrices, k);

  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());
  for (const TestMatrix& m : matrices) {
    for (int r = 0; r < k; ++r) {
      for (int64_t i = 0; i < m.shape.element_count(); ++i) {
        EXPECT_NEAR(m.rank_grads[static_cast<size_t>(r)].at(i),
                    m.exact_sum[static_cast<size_t>(i)], 1e-4);
      }
    }
  }
  if (k > 1) {
    EXPECT_GT(stats->comm_seconds, 0.0);
    EXPECT_EQ(stats->wire_bytes, stats->raw_bytes);
  }
}

TEST_P(AllReduceRankCountTest, NcclComputesExactSum) {
  const int k = GetParam();
  if (k > 8) GTEST_SKIP() << "NCCL supports at most 8 GPUs";
  auto agg = CreateAggregator(CommPrimitive::kNccl, k, FullPrecisionSpec(),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());

  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({31, 3}), k, 3));
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());
  for (int r = 0; r < k; ++r) {
    for (int64_t i = 0; i < 93; ++i) {
      EXPECT_NEAR(matrices[0].rank_grads[static_cast<size_t>(r)].at(i),
                  matrices[0].exact_sum[static_cast<size_t>(i)], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AllReduceRankCountTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// Every rank must leave AllReduce with the same reduced gradient, byte for
// byte: the trainer steps rank 0's parameters alone and copies them to the
// other ranks. Every codec family, both engines, serial and on 4 threads,
// with one quantized and one policy-bypassed slot.
TEST(AllReduceTest, AllRanksReceiveIdenticalAggregate) {
  const int k = 4;
  for (const std::string& name : CodecRegistry::Global().Names()) {
    StatusOr<CodecSpec> spec = CanonicalSpec(name);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status();
    for (CommPrimitive primitive :
         {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(StrCat(spec->Label(), " ", CommPrimitiveName(primitive),
                            " threads=", threads));
        auto agg = CreateAggregator(primitive, k, *spec, Ec2P2_8xlarge(),
                                    ExecutionContext::WithThreads(threads));
        ASSERT_TRUE(agg.ok()) << agg.status();
        std::vector<TestMatrix> matrices;
        matrices.push_back(MakeMatrix(Shape({32, 16}), k, 4));
        matrices.push_back(MakeMatrix(Shape({40}), k, 9));
        auto slots = MakeSlots(matrices, k);
        slots[1].quantized = false;  // small-matrix bypass
        ASSERT_TRUE((*agg)->AllReduce(&slots, 0).ok());
        for (const TestMatrix& m : matrices) {
          const size_t bytes =
              sizeof(float) * static_cast<size_t>(m.shape.element_count());
          for (int r = 1; r < k; ++r) {
            EXPECT_EQ(std::memcmp(m.rank_grads[static_cast<size_t>(r)].data(),
                                  m.rank_grads[0].data(), bytes),
                      0)
                << "rank " << r << ", matrix " << m.shape.ToString();
          }
        }
      }
    }
  }
}

TEST(MpiAllReduceTest, QsgdAggregateIsCloseToExactSum) {
  const int k = 4;
  auto agg = CreateAggregator(CommPrimitive::kMpi, k, QsgdSpec(8),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({512}), k, 5));
  auto slots = MakeSlots(matrices, k);
  ASSERT_TRUE((*agg)->AllReduce(&slots, 0).ok());

  double max_abs = 0.0;
  for (double v : matrices[0].exact_sum) {
    max_abs = std::max(max_abs, std::abs(v));
  }
  for (int64_t i = 0; i < 512; ++i) {
    EXPECT_NEAR(matrices[0].rank_grads[0].at(i),
                matrices[0].exact_sum[static_cast<size_t>(i)],
                0.1 * max_abs)
        << i;
  }
}

TEST(MpiAllReduceTest, QuantizedWireBytesSmallerThanRaw) {
  const int k = 4;
  auto agg = CreateAggregator(CommPrimitive::kMpi, k, QsgdSpec(4),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({4096, 32}), k, 6));
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->wire_bytes, stats->raw_bytes / 5);
  EXPECT_GT(stats->CompressionRatio(), 5.0);
  EXPECT_GT(stats->encode_seconds, 0.0);
}

TEST(MpiAllReduceTest, PolicyBypassedSlotsStayExact) {
  const int k = 3;
  auto agg = CreateAggregator(CommPrimitive::kMpi, k, QsgdSpec(2),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({40}), k, 7));
  auto slots = MakeSlots(matrices, k);
  slots[0].quantized = false;  // small-matrix bypass
  ASSERT_TRUE((*agg)->AllReduce(&slots, 0).ok());
  for (int64_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(matrices[0].rank_grads[0].at(i),
                matrices[0].exact_sum[static_cast<size_t>(i)], 1e-5);
  }
}

TEST(MpiAllReduceTest, OneBitErrorFeedbackResidualsUpdated) {
  const int k = 2;
  auto agg =
      CreateAggregator(CommPrimitive::kMpi, k, OneBitSgdReshapedSpec(16),
                       Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({64}), k, 8));
  auto slots = MakeSlots(matrices, k);
  ASSERT_TRUE((*agg)->AllReduce(&slots, 0).ok());
  double residual_norm = 0.0;
  for (float e : matrices[0].rank_errors[0]) {
    residual_norm += static_cast<double>(e) * e;
  }
  EXPECT_GT(residual_norm, 0.0);
}

TEST(NcclAllReduceTest, SimulatedLowPrecisionKeepsExactValues) {
  // The paper's NCCL simulation: fewer bytes on the wire, exact fp32 sums.
  const int k = 4;
  auto agg = CreateAggregator(CommPrimitive::kNccl, k, QsgdSpec(4),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(agg.ok());
  std::vector<TestMatrix> matrices;
  matrices.push_back(MakeMatrix(Shape({2048}), k, 9));
  auto slots = MakeSlots(matrices, k);
  auto stats = (*agg)->AllReduce(&slots, 0);
  ASSERT_TRUE(stats.ok());
  for (int64_t i = 0; i < 2048; ++i) {
    EXPECT_NEAR(matrices[0].rank_grads[0].at(i),
                matrices[0].exact_sum[static_cast<size_t>(i)], 1e-4);
  }
  EXPECT_LT(stats->wire_bytes, stats->raw_bytes / 5);
}

TEST(NcclAllReduceTest, RejectsMoreThanEightGpus) {
  auto agg =
      CreateAggregator(CommPrimitive::kNccl, 16, FullPrecisionSpec(),
                       Ec2P2_16xlarge(), ExecutionContext::Serial());
  EXPECT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CreateAggregatorTest, DispatchesOnPrimitive) {
  auto mpi = CreateAggregator(CommPrimitive::kMpi, 4, QsgdSpec(4),
                              Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(mpi.ok());
  EXPECT_EQ((*mpi)->Name(), "MPI reduce-and-broadcast");
  EXPECT_EQ((*mpi)->num_ranks(), 4);

  auto nccl = CreateAggregator(CommPrimitive::kNccl, 4, QsgdSpec(4),
                               Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(nccl.ok());
  EXPECT_EQ((*nccl)->Name(), "NCCL ring allreduce");
}

TEST(CreateAggregatorTest, PropagatesConstructionErrors) {
  // The NCCL GPU-count limit surfaces through the unified factory.
  auto agg = CreateAggregator(CommPrimitive::kNccl, 16, FullPrecisionSpec(),
                              Ec2P2_16xlarge(), ExecutionContext::Serial());
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), StatusCode::kFailedPrecondition);

  // Bad codec parameters surface too, for either primitive.
  CodecSpec bad = QsgdSpec(4);
  bad.bucket_size = -1;
  auto mpi = CreateAggregator(CommPrimitive::kMpi, 4, bad, Ec2P2_8xlarge(),
                              ExecutionContext::Serial());
  EXPECT_EQ(mpi.status().code(), StatusCode::kInvalidArgument);
}

// The same exchange run serially and on a pool must agree bit for bit:
// aggregates, error-feedback residuals, and accounting.
void ExpectSerialAndParallelAgree(CommPrimitive primitive,
                                  const CodecSpec& codec, int k) {
  std::vector<TestMatrix> serial_matrices, parallel_matrices;
  for (uint64_t seed : {21u, 22u, 23u}) {
    serial_matrices.push_back(MakeMatrix(Shape({96, 5}), k, seed));
    parallel_matrices.push_back(MakeMatrix(Shape({96, 5}), k, seed));
  }
  auto serial_agg = CreateAggregator(primitive, k, codec, Ec2P2_8xlarge(),
                                     ExecutionContext::Serial());
  auto parallel_agg = CreateAggregator(primitive, k, codec, Ec2P2_8xlarge(),
                                       ExecutionContext::WithThreads(8));
  ASSERT_TRUE(serial_agg.ok());
  ASSERT_TRUE(parallel_agg.ok());

  for (int64_t iteration = 0; iteration < 3; ++iteration) {
    auto serial_slots = MakeSlots(serial_matrices, k);
    auto parallel_slots = MakeSlots(parallel_matrices, k);
    auto serial_stats = (*serial_agg)->AllReduce(&serial_slots, iteration);
    auto parallel_stats =
        (*parallel_agg)->AllReduce(&parallel_slots, iteration);
    ASSERT_TRUE(serial_stats.ok());
    ASSERT_TRUE(parallel_stats.ok());
    EXPECT_EQ(serial_stats->wire_bytes, parallel_stats->wire_bytes);
    EXPECT_EQ(serial_stats->raw_bytes, parallel_stats->raw_bytes);
    EXPECT_EQ(serial_stats->messages, parallel_stats->messages);
    EXPECT_DOUBLE_EQ(serial_stats->comm_seconds,
                     parallel_stats->comm_seconds);
    EXPECT_DOUBLE_EQ(serial_stats->encode_seconds,
                     parallel_stats->encode_seconds);

    for (size_t m = 0; m < serial_matrices.size(); ++m) {
      const TestMatrix& a = serial_matrices[m];
      const TestMatrix& b = parallel_matrices[m];
      for (int r = 0; r < k; ++r) {
        for (int64_t i = 0; i < a.shape.element_count(); ++i) {
          ASSERT_EQ(a.rank_grads[static_cast<size_t>(r)].at(i),
                    b.rank_grads[static_cast<size_t>(r)].at(i))
              << "iteration " << iteration << " matrix " << m << " rank "
              << r << " elem " << i;
        }
        ASSERT_EQ(a.rank_errors[static_cast<size_t>(r)],
                  b.rank_errors[static_cast<size_t>(r)])
            << "iteration " << iteration << " matrix " << m << " rank " << r;
      }
    }
  }
}

TEST(ParallelExchangeTest, MpiQsgdBitIdenticalToSerial) {
  ExpectSerialAndParallelAgree(CommPrimitive::kMpi, QsgdSpec(4), 4);
}

TEST(ParallelExchangeTest, MpiOneBitBitIdenticalToSerial) {
  ExpectSerialAndParallelAgree(CommPrimitive::kMpi,
                               OneBitSgdReshapedSpec(16), 4);
}

TEST(ParallelExchangeTest, MpiFullPrecisionBitIdenticalToSerial) {
  ExpectSerialAndParallelAgree(CommPrimitive::kMpi, FullPrecisionSpec(), 3);
}

TEST(ParallelExchangeTest, NcclBitIdenticalToSerial) {
  ExpectSerialAndParallelAgree(CommPrimitive::kNccl, QsgdSpec(4), 4);
}

TEST(AllReduceTest, MpiQuantizedSlowerKernelsButFewerBytesThanFp) {
  // On a large dense matrix QSGD-4 must cut comm_seconds vs fp32 MPI.
  const int k = 8;
  std::vector<TestMatrix> fp_matrices, q_matrices;
  fp_matrices.push_back(MakeMatrix(Shape({1024, 256}), k, 10));
  q_matrices.push_back(MakeMatrix(Shape({1024, 256}), k, 10));

  auto fp_agg =
      CreateAggregator(CommPrimitive::kMpi, k, FullPrecisionSpec(),
                       Ec2P2_8xlarge(), ExecutionContext::Serial());
  auto q_agg = CreateAggregator(CommPrimitive::kMpi, k, QsgdSpec(4),
                                Ec2P2_8xlarge(), ExecutionContext::Serial());
  auto fp_slots = MakeSlots(fp_matrices, k);
  auto q_slots = MakeSlots(q_matrices, k);
  auto fp_stats = (*fp_agg)->AllReduce(&fp_slots, 0);
  auto q_stats = (*q_agg)->AllReduce(&q_slots, 0);
  ASSERT_TRUE(fp_stats.ok());
  ASSERT_TRUE(q_stats.ok());
  EXPECT_LT(q_stats->comm_seconds, fp_stats->comm_seconds);
  EXPECT_GT(q_stats->encode_seconds, fp_stats->encode_seconds);
}

TEST(CommStatsTest, AddAccumulates) {
  CommStats a, b;
  a.comm_seconds = 1.0;
  a.wire_bytes = 10;
  a.raw_bytes = 40;
  b.comm_seconds = 2.0;
  b.wire_bytes = 30;
  b.raw_bytes = 40;
  b.messages = 4;
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.comm_seconds, 3.0);
  EXPECT_EQ(a.wire_bytes, 40);
  EXPECT_EQ(a.raw_bytes, 80);
  EXPECT_EQ(a.messages, 4);
  EXPECT_DOUBLE_EQ(a.CompressionRatio(), 2.0);
}

TEST(CommStatsTest, CompressionRatioGuardsZeroWireBytes) {
  CommStats empty;
  EXPECT_DOUBLE_EQ(empty.CompressionRatio(), 1.0);

  // raw bytes without wire bytes (nothing sent yet) must not divide by 0.
  CommStats raw_only;
  raw_only.raw_bytes = 1024;
  EXPECT_DOUBLE_EQ(raw_only.CompressionRatio(), 1.0);
}

}  // namespace
}  // namespace lpsgd

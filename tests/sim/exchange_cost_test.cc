// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// One exchange cost account: a real AllReduce and PerfModel's estimate of
// the same matrices must be one computation. For every registered codec
// family at its canonical spec, on both primitives, the engine's CommStats
// over the ResNet-110 inventory (PerfModel's bypass flags, K=4 on EC2
// p2.8xlarge) must equal PerfModel::Estimate field by field, with ==.
// The cross-primitive checks then pin what the paper's Section 2.4
// algorithms charge, independently of ExchangeCost itself: MPI sends two
// messages per matrix and NCCL one; MPI runs three kernel passes per
// quantized matrix and NCCL two; and a sparse codec's NCCL allgather moves
// K blobs per rank where MPI's reduce moves one.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../quant/canonical_spec.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "comm/allreduce.h"
#include "comm/cost_model.h"
#include "machine/specs.h"
#include "nn/model_zoo.h"
#include "quant/codec.h"
#include "quant/registry.h"
#include "sim/perf_model.h"

namespace lpsgd {
namespace {

constexpr int kRanks = 4;

// The inventory's slots with K rank gradients (and residuals) behind them.
struct ExchangeInput {
  std::vector<MatrixSlot> slots;
  std::vector<std::vector<float>> grads;   // one per (matrix, rank)
  std::vector<std::vector<float>> errors;  // one per (matrix, rank)
};

void FillInput(const NetworkStats& network, ExchangeInput* input) {
  input->slots = InventorySlots(network);
  const size_t buffers = input->slots.size() * kRanks;
  input->grads.resize(buffers);
  input->errors.resize(buffers);
  Rng rng(0xc057);
  size_t b = 0;
  for (MatrixSlot& slot : input->slots) {
    const size_t n = static_cast<size_t>(slot.quant_shape.element_count());
    for (int r = 0; r < kRanks; ++r, ++b) {
      input->grads[b].resize(n);
      for (float& v : input->grads[b]) {
        v = static_cast<float>(0.01 * rng.NextGaussian());
      }
      input->errors[b].assign(n, 0.0f);
      slot.rank_grads.push_back(input->grads[b].data());
      slot.rank_errors.push_back(&input->errors[b]);
    }
  }
}

// fp32 bytes of the matrices every primitive sends uncompressed.
int64_t BypassedBytes(const std::vector<MatrixSlot>& slots,
                      const CodecSpec& spec) {
  int64_t bytes = 0;
  for (const MatrixSlot& slot : slots) {
    if (!slot.quantized || spec.kind == CodecKind::kFullPrecision) {
      bytes += slot.quant_shape.element_count() *
               static_cast<int64_t>(sizeof(float));
    }
  }
  return bytes;
}

TEST(ExchangeCostTest, EngineStatsEqualPerfModelEstimateForEveryFamily) {
  auto network = FindNetworkStats("ResNet110");
  ASSERT_TRUE(network.ok());
  const MachineSpec machine = Ec2P2_8xlarge();
  const PerfModel model(*network, machine);
  const CommCostModel cost_model(machine);
  ExchangeInput input;
  FillInput(*network, &input);
  const int64_t matrices = static_cast<int64_t>(input.slots.size());

  // The stats depend only on shapes and flags, so every cell exchanges the
  // same buffers, on two threads to keep AdaptiveQSGD's per-matrix level
  // fitting short.
  for (const std::string& name : CodecRegistry::Global().Names()) {
    StatusOr<CodecSpec> spec = CanonicalSpec(name);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status();
    SCOPED_TRACE(spec->Label());
    auto codec = spec->Create();
    ASSERT_TRUE(codec.ok());

    CommStats engine[2];
    for (CommPrimitive primitive :
         {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
      SCOPED_TRACE(CommPrimitiveName(primitive));
      auto aggregator = CreateAggregator(primitive, kRanks, *spec, machine,
                                         ExecutionContext::WithThreads(2));
      ASSERT_TRUE(aggregator.ok()) << aggregator.status();
      StatusOr<CommStats> stats =
          (*aggregator)->AllReduce(&input.slots, /*iteration=*/0);
      ASSERT_TRUE(stats.ok()) << stats.status();
      auto estimate = model.Estimate(*spec, primitive, kRanks);
      ASSERT_TRUE(estimate.ok()) << estimate.status();

      EXPECT_EQ(stats->wire_bytes, estimate->wire_bytes);
      EXPECT_EQ(stats->raw_bytes, estimate->raw_bytes);
      EXPECT_EQ(stats->comm_seconds, estimate->comm_seconds);
      EXPECT_EQ(stats->encode_seconds, estimate->encode_seconds);
      EXPECT_EQ(stats->messages,
                ExchangeCost(cost_model, primitive, kRanks, *spec, **codec,
                             input.slots)
                    .messages);
      engine[primitive == CommPrimitive::kMpi ? 0 : 1] = *stats;
    }
    const CommStats& mpi = engine[0];
    const CommStats& nccl = engine[1];

    EXPECT_EQ(mpi.messages, 2 * matrices);
    EXPECT_EQ(nccl.messages, matrices);
    EXPECT_EQ(mpi.raw_bytes, static_cast<int64_t>(network->ModelBytes()));
    EXPECT_EQ(nccl.raw_bytes, mpi.raw_bytes);

    if (spec->kind == CodecKind::kFullPrecision) {
      EXPECT_EQ(mpi.encode_seconds, 0.0);
      EXPECT_EQ(nccl.encode_seconds, 0.0);
    } else {
      EXPECT_GT(nccl.encode_seconds, 0.0);
      EXPECT_NEAR(mpi.encode_seconds / nccl.encode_seconds, 1.5, 1e-12);
    }

    const int64_t bypassed = BypassedBytes(input.slots, *spec);
    const bool sparse = spec->kind != CodecKind::kFullPrecision &&
                        (*codec)->SparseCount(input.slots[0].quant_shape) > 0;
    EXPECT_EQ(nccl.wire_bytes - bypassed,
              (sparse ? kRanks : 1) * (mpi.wire_bytes - bypassed));
  }
}

}  // namespace
}  // namespace lpsgd

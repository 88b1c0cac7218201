// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_COMM_NCCL_RING_H_
#define LPSGD_COMM_NCCL_RING_H_

#include <memory>
#include <string>
#include <vector>

#include "comm/allreduce.h"
#include "comm/cost_model.h"
#include "obs/profile.h"
#include "quant/codec.h"
#include "quant/workspace.h"

namespace lpsgd {

// NCCL-style ring allreduce (Section 2.4.2): reduce-scatter followed by
// allgather around a ring, with payloads split into slices.
//
// NCCL's sum collective only supports full precision, so the arithmetic
// here is always an exact fp32 ring sum. When a low-precision dense codec
// spec is supplied, this aggregator reproduces the paper's "NCCL
// simulation" (Section 4.4): the number of bytes charged to the wire —
// and the quantize/unquantize kernel time — correspond to the codec,
// while values remain exact. This is precisely how Figures 7/9/11 were
// produced.
//
// Sparse codecs (codec->SparseCount() > 0, i.e. TopK) cannot ride the
// ring at all — a ring sum needs dense operands — so they take the real
// wire path instead: every rank encodes its gradient, all k blobs are
// sparse-decoded, and the aggregate is built by scatter-adding the
// (index, value) runs in rank order, NCCL-allgather style (each rank
// receives every other rank's blob).
class NcclRingAggregator : public GradientAggregator {
 public:
  // Creates an aggregator for `num_ranks` simulated GPUs, timed on
  // `machine`, with the per-segment ring arithmetic running on
  // `execution`.
  [[nodiscard]] static StatusOr<std::unique_ptr<NcclRingAggregator>> Create(
      int num_ranks, const CodecSpec& spec, const MachineSpec& machine,
      const ExecutionContext& execution);

  std::string Name() const override { return "NCCL ring allreduce"; }
  StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                int64_t iteration) override;
  int num_ranks() const override { return num_ranks_; }

 private:
  NcclRingAggregator(int num_ranks, CodecSpec spec,
                     std::unique_ptr<GradientCodec> codec,
                     const MachineSpec& machine, ExecutionContext execution);

  int num_ranks_;
  CodecSpec spec_;
  // Payload sizing for the dense simulation; the full encode/decode pair
  // for the sparse wire path.
  std::unique_ptr<GradientCodec> codec_;
  CommCostModel cost_model_;
  ExecutionContext exec_;
  // Codec scratch, one per thread-pool slot (ThreadPool::CurrentSlot());
  // its embedded phase scratch also serves the ring loop's sum and
  // allgather spans, merged serially after the exchange (obs/profile.h).
  std::vector<CodecWorkspace> workspaces_;
  // Sparse wire path scratch, grown once and reused (zero-allocation
  // steady state, like the MPI aggregator's buffers): per-(matrix, rank)
  // decoded (index, value) runs.
  std::vector<std::vector<std::vector<uint32_t>>> sparse_indices_;
  std::vector<std::vector<std::vector<float>>> sparse_values_;
};

}  // namespace lpsgd

#endif  // LPSGD_COMM_NCCL_RING_H_

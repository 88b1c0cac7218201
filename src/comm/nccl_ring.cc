// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/nccl_ring.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace lpsgd {
namespace {

constexpr obs::SpanSite kAllReduceSpan{"nccl_ring/allreduce", -1,
                                       "comm/allreduce_wall_seconds"};

}  // namespace

StatusOr<std::unique_ptr<NcclRingAggregator>> NcclRingAggregator::Create(
    int num_ranks, const CodecSpec& spec, const MachineSpec& machine,
    const ExecutionContext& execution) {
  if (num_ranks < 1) {
    return InvalidArgumentError("num_ranks must be >= 1");
  }
  if (num_ranks > machine.nccl_max_gpus) {
    return FailedPreconditionError(
        "NCCL does not support more than 8 GPUs (Section 5.2)");
  }
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         spec.Create());
  return std::unique_ptr<NcclRingAggregator>(new NcclRingAggregator(
      num_ranks, spec, std::move(codec), machine, execution));
}

NcclRingAggregator::NcclRingAggregator(int num_ranks, CodecSpec spec,
                                       std::unique_ptr<GradientCodec> codec,
                                       const MachineSpec& machine,
                                       ExecutionContext execution)
    : num_ranks_(num_ranks),
      spec_(std::move(spec)),
      codec_(std::move(codec)),
      cost_model_(machine),
      exec_(std::move(execution)),
      // One codec workspace per thread-pool slot, like the MPI
      // aggregator's (see ThreadPool::CurrentSlot()).
      workspaces_(static_cast<size_t>(exec_.threads())) {}

StatusOr<CommStats> NcclRingAggregator::AllReduce(
    std::vector<MatrixSlot>* slots, int64_t iteration) {
  CHECK(slots != nullptr);
  obs::Span allreduce_span(kAllReduceSpan);
  const int k = num_ranks_;
  const int64_t num_matrices = static_cast<int64_t>(slots->size());
  const bool identity_codec = spec_.kind == CodecKind::kFullPrecision;

  // A matrix takes the sparse wire path when its codec has a sparse wire
  // form; dense codecs ride the exact fp32 ring below (the paper's NCCL
  // simulation).
  const auto takes_sparse_path = [&](const MatrixSlot& slot) {
    return slot.quantized && !identity_codec &&
           codec_->SparseCount(slot.quant_shape) > 0;
  };

  // Serial setup: validate the slots and size the sparse scratch so the
  // parallel stages below stay allocation-free.
  bool any_sparse = false;
  {
    obs::Span setup_span(obs::kPhaseSum, &workspaces_[0].phases);
    if (sparse_indices_.size() < slots->size()) {
      sparse_indices_.resize(slots->size());
    }
    if (sparse_values_.size() < slots->size()) {
      sparse_values_.resize(slots->size());
    }
    for (int64_t m = 0; m < num_matrices; ++m) {
      const MatrixSlot& slot = (*slots)[static_cast<size_t>(m)];
      CHECK_EQ(static_cast<int>(slot.rank_grads.size()), k);
      if (takes_sparse_path(slot)) {
        any_sparse = true;
        auto& indices = sparse_indices_[static_cast<size_t>(m)];
        auto& values = sparse_values_[static_cast<size_t>(m)];
        if (indices.size() < static_cast<size_t>(k)) {
          indices.resize(static_cast<size_t>(k));
        }
        if (values.size() < static_cast<size_t>(k)) {
          values.resize(static_cast<size_t>(k));
        }
      }
    }
  }

  // Sparse stage A (parallel over (matrix, rank)): every rank encodes its
  // gradient — folding in its error-feedback residual — and the blob is
  // sparse-decoded into that rank's (index, value) run. The real wire
  // path: integrity words are produced and verified per blob.
  if (any_sparse) {
    const Status encode_status = exec_.ParallelFor(
        0, num_matrices * k, LPSGD_HOT_PATH [&](int64_t task) -> Status {
          const size_t m = static_cast<size_t>(task / k);
          const size_t r = static_cast<size_t>(task % k);
          MatrixSlot& slot = (*slots)[m];
          if (!takes_sparse_path(slot)) return OkStatus();
          const int slot_id = ThreadPool::CurrentSlot();
          CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
          CodecWorkspace& ws = workspaces_[static_cast<size_t>(slot_id)];
          const uint64_t tag = comm_internal::ExchangeRankTag(
              iteration, static_cast<int64_t>(m), static_cast<int>(r));
          std::vector<float>* error =
              codec_->UsesErrorFeedback() ? slot.rank_errors[r] : nullptr;
          codec_->Encode(slot.rank_grads[r], slot.quant_shape, tag, error,
                         &ws, &ws.blob);
          const int64_t sparse_count =
              codec_->SparseCount(slot.quant_shape);
          uint32_t* indices;
          float* values;
          {
            // First-call growth of the decode scratch is staging work.
            obs::Span scratch_span(obs::kPhaseSum, &ws.phases);
            indices = quant_internal::EnsureSize(
                &sparse_indices_[m][r], static_cast<size_t>(sparse_count));
            values = quant_internal::EnsureSize(
                &sparse_values_[m][r], static_cast<size_t>(sparse_count));
          }
          LPSGD_RETURN_IF_ERROR(codec_->DecodeSparse(
              ws.blob.data(), static_cast<int64_t>(ws.blob.size()),
              slot.quant_shape, &ws, indices, values));
          return OkStatus();
        });
    if (!encode_status.ok()) {
      // Partial phase scratch from the failed attempt must not leak into
      // the next (retried) exchange's breakdown.
      for (CodecWorkspace& ws : workspaces_) ws.phases.Clear();
      return encode_status;
    }
  }

  // Ring reduce-scatter + allgather, parallel over (matrix, segment)
  // tasks; sparse-path matrices are aggregated in stage C instead.
  // Segments are disjoint index ranges and each segment's sum accumulates
  // in fixed ring order (exactly like NCCL's ring), so the result is
  // bit-identical at any thread count.
  LPSGD_RETURN_IF_ERROR(exec_.ParallelFor(
      0, num_matrices * k, LPSGD_HOT_PATH [&](int64_t task) -> Status {
        const int m = static_cast<int>(task / k);
        MatrixSlot& slot = (*slots)[static_cast<size_t>(m)];
        if (takes_sparse_path(slot)) return OkStatus();
        const int seg = static_cast<int>(task % k);
        const int64_t n = slot.quant_shape.element_count();
        const int64_t segment = (n + k - 1) / k;
        const int64_t begin = seg * segment;
        const int64_t end = std::min(begin + segment, n);
        if (begin >= end) return OkStatus();
        const int slot_id = ThreadPool::CurrentSlot();
        CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
        obs::PhaseTimes& phases =
            workspaces_[static_cast<size_t>(slot_id)].phases;
        // Accumulate contributions in ring order starting from the
        // segment owner's successor.
        const int owner = seg;
        float* acc = slot.rank_grads[static_cast<size_t>(owner)];
        {
          obs::Span sum_span(obs::kPhaseSum, &phases, m);
          // Hop order is the sequential chain; within a hop the elements
          // are independent, so the add dispatches to the elementwise SIMD
          // kernel without changing any rounding.
          const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
          for (int hop = 1; hop < k; ++hop) {
            const int src = (owner + hop) % k;
            const float* other = slot.rank_grads[static_cast<size_t>(src)];
            elementwise.add_assign_f32(acc + begin, other + begin,
                                       end - begin);
          }
        }
        // Allgather: the reduced segment is copied to every rank.
        {
          obs::Span wire_span(obs::kPhaseWire, &phases, m);
          for (int r = 0; r < k; ++r) {
            if (r == owner) continue;
            float* dst = slot.rank_grads[static_cast<size_t>(r)];
            for (int64_t i = begin; i < end; ++i) dst[i] = acc[i];
          }
        }
        return OkStatus();
      }));

  // Sparse stage C (parallel over matrices): scatter-add the k decoded
  // runs in rank order straight into rank 0's gradient, which stage A has
  // already encoded, and hand the other ranks a copy.
  if (any_sparse) {
    LPSGD_RETURN_IF_ERROR(exec_.ParallelFor(
        0, num_matrices, LPSGD_HOT_PATH [&](int64_t mi) -> Status {
          const size_t m = static_cast<size_t>(mi);
          MatrixSlot& slot = (*slots)[m];
          if (!takes_sparse_path(slot)) return OkStatus();
          const int slot_id = ThreadPool::CurrentSlot();
          CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
          obs::PhaseTimes& phases =
              workspaces_[static_cast<size_t>(slot_id)].phases;
          const int64_t n = slot.quant_shape.element_count();
          float* aggregate = slot.rank_grads[0];
          {
            obs::Span sum_span(obs::kPhaseSum, &phases, static_cast<int>(m));
            comm_internal::ScatterAddRanks(
                sparse_indices_[m], sparse_values_[m], k,
                codec_->SparseCount(slot.quant_shape), n, aggregate);
          }
          {
            obs::Span wire_span(obs::kPhaseWire, &phases);
            for (int r = 1; r < k; ++r) {
              std::memcpy(slot.rank_grads[static_cast<size_t>(r)],
                          aggregate, static_cast<size_t>(n) * sizeof(float));
            }
          }
          return OkStatus();
        }));
  }

  const CommStats stats = ExchangeCost(cost_model_, CommPrimitive::kNccl, k,
                                       spec_, *codec_, *slots);
  allreduce_span.set_bytes(stats.wire_bytes);
  comm_internal::RecordAllReduceStats(stats);
  // Fold the per-slot phase scratch into the profiler's open step —
  // serially, after the parallel stages, so no slot is concurrently
  // written.
  if (obs::ProfileEnabled()) {
    for (CodecWorkspace& ws : workspaces_) {
      obs::Profiler::Global().AddPhases(ws.phases);
      ws.phases.Clear();
    }
  }
  return stats;
}

}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "comm/mpi_reduce_bcast.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "obs/profile.h"
#include "obs/span.h"

namespace lpsgd {
namespace {

constexpr obs::SpanSite kAllReduceSpan{"mpi_reduce_bcast/allreduce", -1,
                                       "comm/allreduce_wall_seconds"};
constexpr obs::SpanSite kReduceSpan{"mpi_reduce_bcast/reduce"};
constexpr obs::SpanSite kBroadcastSpan{"mpi_reduce_bcast/broadcast"};

}  // namespace

StatusOr<std::unique_ptr<MpiReduceBcastAggregator>>
MpiReduceBcastAggregator::Create(int num_ranks, const CodecSpec& spec,
                                 const MachineSpec& machine,
                                 const ExecutionContext& execution) {
  if (num_ranks < 1) {
    return InvalidArgumentError("num_ranks must be >= 1");
  }
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         spec.Create());
  return std::unique_ptr<MpiReduceBcastAggregator>(
      new MpiReduceBcastAggregator(num_ranks, spec, std::move(codec),
                                   machine, execution));
}

MpiReduceBcastAggregator::MpiReduceBcastAggregator(
    int num_ranks, CodecSpec spec, std::unique_ptr<GradientCodec> codec,
    const MachineSpec& machine, ExecutionContext execution)
    : num_ranks_(num_ranks),
      spec_(std::move(spec)),
      codec_(std::move(codec)),
      cost_model_(machine),
      exec_(std::move(execution)),
      // One codec workspace per thread-pool slot: two threads executing
      // tasks of the same ParallelFor batch never share a slot, so the
      // scratch is race-free (see ThreadPool::CurrentSlot()).
      workspaces_(static_cast<size_t>(exec_.threads())) {}

void MpiReduceBcastAggregator::ExportExchangeState(
    std::vector<std::vector<float>>* state) const {
  *state = aggregate_errors_;
}

Status MpiReduceBcastAggregator::ImportExchangeState(
    const std::vector<std::vector<float>>& state) {
  aggregate_errors_ = state;
  return OkStatus();
}

StatusOr<CommStats> MpiReduceBcastAggregator::AllReduce(
    std::vector<MatrixSlot>* slots, int64_t iteration) {
  CHECK(slots != nullptr);
  obs::Span allreduce_span(kAllReduceSpan);
  const int k = num_ranks_;
  const int64_t num_matrices = static_cast<int64_t>(slots->size());
  const bool identity_codec = spec_.kind == CodecKind::kFullPrecision;
  const auto quantized = [&](const MatrixSlot& slot) {
    return slot.quantized && !identity_codec;
  };
  // A failed call leaves slot buffers and owner residuals partly written
  // (comm/allreduce.h); the retry layer restores both.
  const auto fail = [&](const Status& status) {
    // Partial phase scratch from the failed attempt must not leak into the
    // next (retried) exchange's breakdown.
    for (CodecWorkspace& ws : workspaces_) ws.phases.Clear();
    return status;
  };

  // Serial setup: size the persistent buffers, zero first-use residuals,
  // and cut every matrix into tiles. All of it lives in member buffers
  // that keep their capacity across calls (grown entries are never
  // dropped), so steady-state calls allocate nothing, and the parallel
  // stages below never grow a buffer. Attributed as exchange staging so a
  // cold first step keeps its breakdown coverage.
  int64_t reduce_bytes = 0;
  {
    obs::Span setup_span(obs::kPhaseSum, &workspaces_[0].phases);
    const auto grow = [&](auto* per_matrix) {
      if (per_matrix->size() < slots->size()) {
        per_matrix->resize(slots->size());
      }
    };
    grow(&aggregate_errors_);
    grow(&rank_blobs_);
    grow(&aggregate_blobs_);
    grow(&sparse_indices_);
    grow(&sparse_values_);
    tiles_.clear();
    // Longest tile of each kind, sizing the per-slot scratch: quantized
    // tiles need an aggregate tile (and a decode tile unless the codec is
    // sparse), bypassed tiles a double accumulator.
    int64_t longest_sum = 0;
    int64_t longest_decode = 0;
    int64_t longest_fp = 0;
    for (int64_t mi = 0; mi < num_matrices; ++mi) {
      const size_t m = static_cast<size_t>(mi);
      const MatrixSlot& slot = (*slots)[m];
      CHECK_EQ(static_cast<int>(slot.rank_grads.size()), k);
      const int64_t n = slot.quant_shape.element_count();
      int64_t tile = kTileElements;
      if (quantized(slot)) {
        const int64_t blob_bytes =
            codec_->EncodedSizeBytes(slot.quant_shape);
        reduce_bytes += blob_bytes * k;
        quant_internal::EnsureSize(&aggregate_blobs_[m],
                                   static_cast<size_t>(blob_bytes));
        if (rank_blobs_[m].size() < static_cast<size_t>(k)) {
          rank_blobs_[m].resize(static_cast<size_t>(k));
        }
        const int64_t sparse_count =
            codec_->SparseCount(slot.quant_shape);
        if (sparse_count > 0) {
          if (sparse_indices_[m].size() < static_cast<size_t>(k)) {
            sparse_indices_[m].resize(static_cast<size_t>(k));
            sparse_values_[m].resize(static_cast<size_t>(k));
          }
          for (int r = 0; r < k; ++r) {
            quant_internal::EnsureSize(&sparse_indices_[m][r],
                                       static_cast<size_t>(sparse_count));
            quant_internal::EnsureSize(&sparse_values_[m][r],
                                       static_cast<size_t>(sparse_count));
          }
        }
        if (codec_->UsesErrorFeedback()) {
          std::vector<float>& residual = aggregate_errors_[m];
          if (residual.size() != static_cast<size_t>(n)) {
            residual.assign(static_cast<size_t>(n), 0.0f);
          }
        }
        // Whole aligned units of about kTileElements; a codec whose blob
        // cannot be split gets one tile per matrix.
        const int64_t alignment = codec_->RangeAlignment(slot.quant_shape);
        tile = alignment == 0 ? n
                              : std::max(alignment, kTileElements /
                                                        alignment * alignment);
        longest_sum = std::max(longest_sum, std::min(tile, n));
        if (sparse_count == 0) {
          longest_decode = std::max(longest_decode, std::min(tile, n));
        }
      } else {
        longest_fp = std::max(longest_fp, std::min(tile, n));
      }
      for (int64_t begin = 0; begin < n; begin += tile) {
        tiles_.push_back({mi, begin, std::min(begin + tile, n)});
      }
    }
    if (tile_scratch_.size() < workspaces_.size()) {
      tile_scratch_.resize(workspaces_.size());
    }
    for (TileScratch& scratch : tile_scratch_) {
      quant_internal::EnsureSize(&scratch.sum,
                                 static_cast<size_t>(longest_sum));
      quant_internal::EnsureSize(&scratch.decoded,
                                 static_cast<size_t>(longest_decode));
      quant_internal::EnsureSize(&scratch.fp_sum,
                                 static_cast<size_t>(longest_fp));
    }
  }
  const int64_t num_tiles = static_cast<int64_t>(tiles_.size());

  // Stage 1 (parallel over (matrix, rank)): every rank encodes its local
  // gradient, folding in its error-feedback residual, into its persistent
  // blob, which is then verified (sparse codecs decode their (index,
  // value) runs here instead). Stochastic tags depend only on
  // (iteration, m, r), residuals and blobs are per (m, r) — scheduling
  // cannot change a single bit.
  const auto encode_rank = LPSGD_HOT_PATH [&](int64_t task) -> Status {
    const size_t m = static_cast<size_t>(task / k);
    const size_t r = static_cast<size_t>(task % k);
    MatrixSlot& slot = (*slots)[m];
    if (!quantized(slot)) return OkStatus();
    CodecWorkspace& ws = SlotWorkspace();
    const uint64_t tag = comm_internal::ExchangeRankTag(
        iteration, static_cast<int64_t>(m), static_cast<int>(r));
    std::vector<float>* error =
        codec_->UsesErrorFeedback() ? slot.rank_errors[r] : nullptr;
    std::vector<uint8_t>& blob = rank_blobs_[m][r];
    codec_->Encode(slot.rank_grads[r], slot.quant_shape, tag, error, &ws,
                   &blob);
    const int64_t blob_bytes = static_cast<int64_t>(blob.size());
    if (wire_tamper_) {
      wire_tamper_(iteration, static_cast<int64_t>(m), static_cast<int>(r),
                   blob.data(), blob_bytes);
    }
    if (codec_->SparseCount(slot.quant_shape) > 0) {
      return codec_->DecodeSparse(blob.data(), blob_bytes, slot.quant_shape,
                                  &ws, sparse_indices_[m][r].data(),
                                  sparse_values_[m][r].data());
    }
    obs::Span verify_span(obs::kPhaseDecode, &ws.phases, static_cast<int>(m),
                          static_cast<int>(r));
    return codec_internal::VerifyWireBlob(
        codec_->MetricName(), blob.data(), blob_bytes,
        codec_->EncodedSizeBytes(slot.quant_shape));
  };
  {
    obs::Span reduce_span(kReduceSpan);
    reduce_span.set_bytes(reduce_bytes);
    const Status reduce_status =
        exec_.ParallelFor(0, num_matrices * k, std::ref(encode_rank));
    if (!reduce_status.ok()) return fail(reduce_status);
  }

  // Stage 2 (parallel over tiles): the owner zeroes an aggregate tile,
  // decodes each rank's range of it into cache-resident scratch and adds
  // it in rank order (each element's fp summation order is fixed), then
  // re-encodes the range into the aggregate blob with the owner tag and
  // the range of its persistent residual. That encode decodes its own
  // range straight into rank 0's gradient tile — the broadcast every rank
  // receives — which is then copied to the other ranks. Bypassed matrices
  // sum their tile in double and store it to every rank instead.
  const auto reduce_tile = LPSGD_HOT_PATH [&](int64_t t) -> Status {
    const Tile& tile = tiles_[static_cast<size_t>(t)];
    const size_t m = static_cast<size_t>(tile.matrix);
    MatrixSlot& slot = (*slots)[m];
    const int64_t begin = tile.begin;
    const int64_t length = tile.end - tile.begin;
    CodecWorkspace& ws = SlotWorkspace();
    TileScratch& scratch =
        tile_scratch_[static_cast<size_t>(ThreadPool::CurrentSlot())];
    const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
    const int matrix = static_cast<int>(m);

    if (!quantized(slot)) {
      // Full-precision pipeline: plain reduce + broadcast of fp32 data.
      // Each sum[i] accumulates over ranks in fixed order; within one rank
      // pass the elements are independent, so the widened add and the fp32
      // store dispatch to the elementwise SIMD kernels without changing
      // any rounding.
      double* sum = scratch.fp_sum.data();
      {
        obs::Span sum_span(obs::kPhaseSum, &ws.phases, matrix);
        std::fill(sum, sum + length, 0.0);
        for (int r = 0; r < k; ++r) {
          elementwise.accumulate_f64(
              sum, slot.rank_grads[static_cast<size_t>(r)] + begin, length);
        }
      }
      obs::Span copy_span(obs::kPhaseWire, &ws.phases, matrix);
      for (int r = 0; r < k; ++r) {
        elementwise.store_f64_as_f32(
            sum, slot.rank_grads[static_cast<size_t>(r)] + begin, length);
      }
      return OkStatus();
    }

    float* sum = scratch.sum.data();
    const int64_t sparse_count = codec_->SparseCount(slot.quant_shape);
    if (sparse_count > 0) {
      // A sparse blob cannot be split, so the tile is the whole matrix.
      CHECK_EQ(length, slot.quant_shape.element_count());
      obs::Span sum_span(obs::kPhaseSum, &ws.phases, matrix);
      comm_internal::ScatterAddRanks(sparse_indices_[m], sparse_values_[m], k,
                                     sparse_count, length, sum);
    } else {
      float* decoded = scratch.decoded.data();
      {
        obs::Span sum_span(obs::kPhaseSum, &ws.phases, matrix);
        std::fill(sum, sum + length, 0.0f);
      }
      for (int r = 0; r < k; ++r) {
        {
          obs::Span decode_span(obs::kPhaseDecode, &ws.phases, matrix, r);
          LPSGD_RETURN_IF_ERROR(codec_->DecodeRange(
              rank_blobs_[m][static_cast<size_t>(r)].data(), slot.quant_shape,
              begin, tile.end, &ws, decoded));
        }
        obs::Span sum_span(obs::kPhaseSum, &ws.phases, matrix, r);
        elementwise.add_assign_f32(sum, decoded, length);
      }
    }

    const int owner = static_cast<int>(m) % k;
    // Residual already sized by the serial setup above.
    std::vector<float>* agg_error =
        codec_->UsesErrorFeedback() ? &aggregate_errors_[m] : nullptr;
    const uint64_t agg_tag = comm_internal::ExchangeAggregateTag(
        iteration, static_cast<int64_t>(m), owner);
    float* broadcast = slot.rank_grads[0] + begin;
    {
      obs::Span encode_span(obs::kPhaseEncode, &ws.phases, matrix);
      codec_->EncodeRange(sum, slot.quant_shape, agg_tag, agg_error, begin,
                          tile.end, &ws, aggregate_blobs_[m].data(),
                          broadcast);
    }
    obs::Span copy_span(obs::kPhaseWire, &ws.phases, matrix);
    for (int r = 1; r < k; ++r) {
      std::memcpy(slot.rank_grads[static_cast<size_t>(r)] + begin, broadcast,
                  static_cast<size_t>(length) * sizeof(float));
    }
    return OkStatus();
  };

  // Stage 3 (parallel over matrices): seal each aggregate blob — the
  // owner's broadcast message — and verify it on receipt. A blob that
  // fails fails the call; the retry layer restores the rank gradients and
  // owner residuals stage 2 already overwrote.
  const auto seal_aggregate = LPSGD_HOT_PATH [&](int64_t mi) -> Status {
    const size_t m = static_cast<size_t>(mi);
    if (!quantized((*slots)[m])) return OkStatus();
    CodecWorkspace& ws = SlotWorkspace();
    std::vector<uint8_t>& blob = aggregate_blobs_[m];
    const int64_t blob_bytes = static_cast<int64_t>(blob.size());
    {
      obs::Span seal_span(obs::kPhaseEncode, &ws.phases, static_cast<int>(mi));
      seal_span.set_bytes(blob_bytes);
      codec_internal::SealWireBlob(
          blob.data(), blob_bytes - codec_internal::kWireChecksumBytes);
    }
    if (wire_tamper_) {
      wire_tamper_(iteration, mi, /*rank=*/-1, blob.data(), blob_bytes);
    }
    obs::Span verify_span(obs::kPhaseDecode, &ws.phases, static_cast<int>(mi));
    return codec_internal::VerifyWireBlob(
        codec_->MetricName(), blob.data(), blob_bytes,
        codec_->EncodedSizeBytes((*slots)[m].quant_shape));
  };

  {
    obs::Span broadcast_span(kBroadcastSpan);
    Status bcast_status =
        exec_.ParallelFor(0, num_tiles, std::ref(reduce_tile));
    if (bcast_status.ok()) {
      bcast_status =
          exec_.ParallelFor(0, num_matrices, std::ref(seal_aggregate));
    }
    if (!bcast_status.ok()) return fail(bcast_status);
  }

  const CommStats stats = ExchangeCost(cost_model_, CommPrimitive::kMpi, k,
                                       spec_, *codec_, *slots);
  allreduce_span.set_bytes(stats.wire_bytes);
  comm_internal::RecordAllReduceStats(stats);
  // Fold the per-slot phase scratch (codec encode/decode plus the sum and
  // broadcast spans above) into the profiler's open step — serially, after
  // the parallel stages, so no slot is concurrently written.
  if (obs::ProfileEnabled()) {
    for (CodecWorkspace& ws : workspaces_) {
      obs::Profiler::Global().AddPhases(ws.phases);
      ws.phases.Clear();
    }
  }
  return stats;
}

CodecWorkspace& MpiReduceBcastAggregator::SlotWorkspace() {
  const int slot_id = ThreadPool::CurrentSlot();
  CHECK_LT(static_cast<size_t>(slot_id), workspaces_.size());
  return workspaces_[static_cast<size_t>(slot_id)];
}

}  // namespace lpsgd

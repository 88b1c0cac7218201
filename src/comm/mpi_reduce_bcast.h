// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_COMM_MPI_REDUCE_BCAST_H_
#define LPSGD_COMM_MPI_REDUCE_BCAST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/allreduce.h"
#include "comm/cost_model.h"
#include "quant/codec.h"
#include "quant/workspace.h"

namespace lpsgd {

// The CNTK MPI reduce-and-broadcast exchange (Section 2.4.1), with the
// quantize/unquantize steps of Section 3.2.1:
//
//   1. Every rank encodes each gradient matrix with the configured codec,
//      folding in its local error-feedback residual.
//   2. The matrix's owner rank (round-robin by matrix index) decodes all K
//      blobs and sums them, then re-encodes the aggregate — carrying a
//      persistent aggregation residual of its own, exactly like CNTK's
//      1bitSGD.
//   3. The owner broadcasts the aggregate, and every rank's gradient
//      buffer receives its decode. The owner's re-encode already decodes
//      it (GradientCodec::EncodeRange's `decoded`), straight into rank 0's
//      buffer; the other ranks copy that, and the sealed blob is verified
//      on receipt.
//
// Like CNTK, which splits every matrix into contiguous ranges that workers
// reduce independently, steps 2 and 3 run per bucket-aligned *tile* of a
// matrix (GradientCodec::RangeAlignment; one tile per matrix for codecs
// whose blob cannot be split). A tile's owner decodes each rank's range
// into a cache-resident scratch tile and adds it straight into the
// aggregate tile, so no dense per-rank copy of a matrix is ever
// materialized. The per-element summation order, stochastic tags, and
// residual updates are those of a whole-matrix pipeline, so results are
// bit-identical to it at any tile split and thread count (DESIGN.md §7
// "Range-split exchange").
//
// Matrices bypassed by the quantization policy (slot.quantized == false)
// travel the full-precision pipeline, tile by tile.
class MpiReduceBcastAggregator : public GradientAggregator {
 public:
  // Creates an aggregator for `num_ranks` simulated GPUs exchanging
  // gradients encoded per `spec`, timed on `machine`, with host work
  // (per-rank encodes, per-blob decode+sum) running on `execution`.
  [[nodiscard]] static StatusOr<std::unique_ptr<MpiReduceBcastAggregator>>
  Create(int num_ranks, const CodecSpec& spec, const MachineSpec& machine,
         const ExecutionContext& execution);

  // Tile length in elements of the per-tile reduce and broadcast steps
  // (64 KiB of fp32): a slot's aggregate and decode tiles stay
  // cache-resident while the K rank blobs stream through them. Each matrix
  // rounds it to a multiple of its codec's RangeAlignment.
  static constexpr int64_t kTileElements = int64_t{1} << 14;

  std::string Name() const override { return "MPI reduce-and-broadcast"; }
  StatusOr<CommStats> AllReduce(std::vector<MatrixSlot>* slots,
                                int64_t iteration) override;
  int num_ranks() const override { return num_ranks_; }

  // Exchange-state hooks (comm/allreduce.h): the owner-side aggregation
  // residuals are the only cross-call state, and they are per-matrix
  // (rank-count independent), so a restore at a different rank count
  // imports them unchanged.
  void ExportExchangeState(
      std::vector<std::vector<float>>* state) const override;
  [[nodiscard]] Status ImportExchangeState(
      const std::vector<std::vector<float>>& state) override;

  const GradientCodec& codec() const { return *codec_; }

  // Test seam: invoked with every sealed rank blob (rank >= 0) and every
  // sealed aggregate blob (rank == -1) before it is verified; returning
  // true means the bytes were tampered with. Lets fault tests corrupt the
  // real wire path and exercise checksum verification end to end. Null
  // (the default) disables it.
  using WireTamper = std::function<bool(int64_t iteration, int64_t matrix,
                                        int rank, uint8_t* data,
                                        int64_t size)>;
  void set_wire_tamper(WireTamper tamper) { wire_tamper_ = std::move(tamper); }

 private:
  MpiReduceBcastAggregator(int num_ranks, CodecSpec spec,
                           std::unique_ptr<GradientCodec> codec,
                           const MachineSpec& machine,
                           ExecutionContext execution);

  // This thread's codec scratch (see workspaces_).
  CodecWorkspace& SlotWorkspace();

  int num_ranks_;
  CodecSpec spec_;
  std::unique_ptr<GradientCodec> codec_;
  CommCostModel cost_model_;
  ExecutionContext exec_;
  // Aggregation residual per matrix index (owner-side requantization
  // error). Lazily sized on first use.
  std::vector<std::vector<float>> aggregate_errors_;
  WireTamper wire_tamper_;

  // Reusable exchange workspaces (DESIGN.md "Hot-path kernels and
  // workspaces"): every buffer below grows to the largest model seen and
  // then stays, so steady-state AllReduce calls never touch the heap.
  //
  // Codec scratch, one per thread-pool slot (ThreadPool::CurrentSlot());
  // sized to exec_.threads() at construction.
  std::vector<CodecWorkspace> workspaces_;
  // Per-slot scratch of the per-tile steps, sized in the serial setup to
  // the call's longest tile.
  struct TileScratch {
    std::vector<float> sum;      // the owner's aggregate tile
    std::vector<float> decoded;  // one rank's decoded range
    std::vector<double> fp_sum;  // full-precision pipeline accumulator
  };
  std::vector<TileScratch> tile_scratch_;
  // rank_blobs_[m][r]: rank r's sealed, verified wire blob for matrix m.
  std::vector<std::vector<std::vector<uint8_t>>> rank_blobs_;
  // aggregate_blobs_[m]: the owner's re-encoded aggregate, written range by
  // range in stage 2 and sealed per matrix in stage 3.
  std::vector<std::vector<uint8_t>> aggregate_blobs_;
  // Sparse codecs (codec->SparseCount() > 0) decode rank r's blob for
  // matrix m into these (index, value) runs in stage 1; the owner
  // scatter-adds k * SparseCount pairs instead of decoding k dense blobs.
  std::vector<std::vector<std::vector<uint32_t>>> sparse_indices_;
  std::vector<std::vector<std::vector<float>>> sparse_values_;
  // The call's work list for stage 2: every tile of every matrix, in
  // matrix order.
  struct Tile {
    int64_t matrix;
    int64_t begin;
    int64_t end;
  };
  std::vector<Tile> tiles_;
};

}  // namespace lpsgd

#endif  // LPSGD_COMM_MPI_REDUCE_BCAST_H_

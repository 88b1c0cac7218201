// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "base/rng.h"
#include "base/strings.h"
#include "ckpt/manager.h"
#include "comm/allreduce.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "quant/policy.h"
#include "quant/workspace.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace e2e {
namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Forward + backward of rank `rank`'s shard of `batch` on `net`.
void ComputeGradients(const Batch& batch, int rank, int num_ranks,
                      Network* net) {
  const int64_t shard = batch.size() / num_ranks;
  std::vector<int64_t> dims = batch.inputs.shape().dims();
  const int64_t sample_elems = batch.inputs.size() / batch.size();
  dims[0] = shard;
  Tensor inputs{Shape(dims)};
  const int64_t begin = rank * shard;
  std::copy(batch.inputs.data() + begin * sample_elems,
            batch.inputs.data() + (begin + shard) * sample_elems,
            inputs.data());
  std::vector<int> labels(batch.labels.begin() + begin,
                          batch.labels.begin() + begin + shard);
  net->ZeroGrads();
  const LossResult loss =
      SoftmaxCrossEntropy(net->Forward(inputs, /*training=*/true), labels);
  net->Backward(loss.logits_grad);
}

double GemmGflops(const GemmCall& call) {
  const Shape a_shape = call.transpose_a ? Shape({call.k, call.m})
                                         : Shape({call.m, call.k});
  const Shape b_shape = call.transpose_b ? Shape({call.n, call.k})
                                         : Shape({call.k, call.n});
  Tensor a(a_shape);
  Tensor b(b_shape);
  Tensor c(Shape({call.m, call.n}));
  Rng rng(HashCounter(static_cast<uint64_t>(call.m * call.k),
                      static_cast<uint64_t>(call.n)));
  a.FillGaussian(&rng, 1.0f);
  b.FillGaussian(&rng, 1.0f);
  auto run = [&](int64_t reps) {
    const int64_t start = NowNs();
    for (int64_t i = 0; i < reps; ++i) {
      Gemm(call.transpose_a, call.transpose_b, 1.0f, a, b, 0.0f, &c);
    }
    return NowNs() - start;
  };
  // Size one batch of calls to ~4 ms, then keep the median of 5 batches.
  int64_t reps = 1;
  while (run(reps) < 4'000'000 && reps < (int64_t{1} << 20)) reps *= 2;
  std::vector<int64_t> batches;
  for (int i = 0; i < 5; ++i) batches.push_back(run(reps));
  std::nth_element(batches.begin(), batches.begin() + 2, batches.end());
  const double flops = 2.0 * static_cast<double>(call.m) *
                       static_cast<double>(call.k) *
                       static_cast<double>(call.n) *
                       static_cast<double>(reps);
  return flops / static_cast<double>(batches[2]);  // flop/ns = GFLOP/s
}

}  // namespace

StatusOr<ExchangeCosts> MeasureExchange(const Workload& workload,
                                        const TrainerOptions& options,
                                        Network& source, const Dataset& train,
                                        int steps) {
  const int k = options.num_gpus;
  const ExecutionContext& execution = options.execution;
  ClearUpperVectorState();  // the replicas' weight init is libm-bound
  std::vector<Network> replicas;
  std::vector<std::vector<ParamRef>> params;
  for (int r = 0; r < k; ++r) {
    replicas.push_back(workload.build(options.seed));
    replicas.back().CopyParamsFrom(source);
  }
  for (Network& replica : replicas) params.push_back(replica.Params());
  const size_t num_matrices = params[0].size();
  const std::vector<bool> quantized =
      ChooseQuantizedMatrices(params[0], options.policy);

  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<GradientCodec> codec,
                         options.codec.Create());
  LPSGD_ASSIGN_OR_RETURN(
      std::unique_ptr<GradientAggregator> aggregator,
      CreateAggregator(options.primitive, k, options.codec, options.machine,
                       execution));

  // Same residual and codec-coverage rule as the trainer: the engine runs
  // the codec on a quantized matrix always under MPI, and under NCCL only
  // on the sparse wire path.
  std::vector<bool> encoded(num_matrices, false);
  std::vector<std::vector<std::vector<float>>> errors(
      static_cast<size_t>(k),
      std::vector<std::vector<float>>(num_matrices));
  for (size_t m = 0; m < num_matrices; ++m) {
    const Shape& shape = params[0][m].quant_shape;
    encoded[m] = quantized[m] && (options.primitive == CommPrimitive::kMpi ||
                                  codec->SparseCount(shape) > 0);
    if (!encoded[m] || !codec->UsesErrorFeedback()) continue;
    for (auto& rank_errors : errors) {
      rank_errors[m].assign(static_cast<size_t>(shape.element_count()), 0.0f);
    }
  }
  std::vector<SgdMomentumOptimizer> optimizers(
      static_cast<size_t>(k),
      SgdMomentumOptimizer(options.learning_rate, options.momentum));

  CodecWorkspace workspace;
  std::vector<uint8_t> blob;
  std::vector<float> residual;
  std::vector<float> decoded;
  std::vector<uint32_t> sparse_indices;
  std::vector<float> sparse_values;
  std::vector<MatrixSlot> slots(num_matrices);

  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  int64_t codec_elems = 0;
  int64_t codec_bytes = 0;
  int64_t allreduce_ns = 0;
  int64_t optimizer_ns = 0;
  CommStats comm;

  BatchIterator batches(&train, options.global_batch_size,
                        options.seed ^ 0x5eedULL);
  int epoch = 0;
  Batch batch;
  // The first steps size the workspaces and the aggregator's scratch;
  // they run untimed.
  constexpr int kWarmupSteps = 2;
  for (int step = -kWarmupSteps; step < steps; ++step) {
    if (step == 0) {
      encode_ns = decode_ns = codec_elems = codec_bytes = 0;
      allreduce_ns = optimizer_ns = 0;
      comm = CommStats();
    }
    if (!batches.NextBatch(&batch)) {
      batches.StartEpoch(++epoch);
      batches.NextBatch(&batch);
    }
    for (int r = 0; r < k; ++r) {
      ComputeGradients(batch, r, k, &replicas[static_cast<size_t>(r)]);
    }

    // The codec on its own, on copies of the residuals so the exchange
    // below sees the same state the trainer would.
    for (int r = 0; r < k; ++r) {
      for (size_t m = 0; m < num_matrices; ++m) {
        if (!encoded[m]) continue;
        const ParamRef& param = params[static_cast<size_t>(r)][m];
        const Shape& shape = param.quant_shape;
        const std::vector<float>& error =
            errors[static_cast<size_t>(r)][m];
        residual = error;
        int64_t start = NowNs();
        codec->Encode(param.grad->data(), shape,
                      comm_internal::ExchangeRankTag(
                          step + kWarmupSteps, static_cast<int64_t>(m), r),
                      error.empty() ? nullptr : &residual, &workspace, &blob);
        encode_ns += NowNs() - start;
        const int64_t sparse = codec->SparseCount(shape);
        Status decode;
        start = NowNs();
        if (sparse > 0) {
          sparse_indices.resize(static_cast<size_t>(sparse));
          sparse_values.resize(static_cast<size_t>(sparse));
          decode = codec->DecodeSparse(
              blob.data(), static_cast<int64_t>(blob.size()), shape,
              &workspace, sparse_indices.data(), sparse_values.data());
        } else {
          decoded.resize(static_cast<size_t>(shape.element_count()));
          decode = codec->Decode(blob.data(),
                                 static_cast<int64_t>(blob.size()), shape,
                                 &workspace, decoded.data());
        }
        decode_ns += NowNs() - start;
        LPSGD_RETURN_IF_ERROR(decode);
        codec_elems += shape.element_count();
        codec_bytes += static_cast<int64_t>(blob.size());
      }
    }

    for (size_t m = 0; m < num_matrices; ++m) {
      MatrixSlot& slot = slots[m];
      slot.quant_shape = params[0][m].quant_shape;
      slot.quantized = quantized[m];
      slot.rank_grads.clear();
      slot.rank_errors.clear();
      for (int r = 0; r < k; ++r) {
        slot.rank_grads.push_back(
            params[static_cast<size_t>(r)][m].grad->data());
        slot.rank_errors.push_back(&errors[static_cast<size_t>(r)][m]);
      }
    }
    int64_t start = NowNs();
    LPSGD_ASSIGN_OR_RETURN(const CommStats stats,
                           aggregator->AllReduce(&slots, step + kWarmupSteps));
    allreduce_ns += NowNs() - start;
    comm.Add(stats);

    for (size_t m = 0; m < num_matrices; ++m) {
      const Tensor& reference = *params[0][m].grad;
      for (int64_t i = 0; i < reference.size(); ++i) {
        if (!std::isfinite(reference.data()[i])) {
          return InternalError(StrCat("non-finite reduced gradient in ",
                                      params[0][m].name, " at step ", step));
        }
      }
      for (int r = 1; r < k; ++r) {
        const Tensor& grad = *params[static_cast<size_t>(r)][m].grad;
        if (std::memcmp(grad.data(), reference.data(),
                        sizeof(float) * static_cast<size_t>(grad.size())) !=
            0) {
          return InternalError(StrCat("rank ", r, " reduced ",
                                      params[0][m].name,
                                      " differently from rank 0 at step ",
                                      step));
        }
      }
    }

    const float inv_k = 1.0f / static_cast<float>(k);
    start = NowNs();
    LPSGD_RETURN_IF_ERROR(execution.ParallelFor(0, k, [&](int64_t r) {
      for (ParamRef& param : params[static_cast<size_t>(r)]) {
        Scale(inv_k, param.grad);
      }
      optimizers[static_cast<size_t>(r)].Step(params[static_cast<size_t>(r)]);
      return OkStatus();
    }));
    optimizer_ns += NowNs() - start;
  }

  ExchangeCosts costs;
  const double n = static_cast<double>(steps);
  costs.encode_ms = Ms(encode_ns) / n;
  costs.decode_ms = Ms(decode_ns) / n;
  if (codec_elems > 0) {
    costs.encode_melem_s = static_cast<double>(codec_elems) * 1e3 /
                           static_cast<double>(std::max<int64_t>(encode_ns, 1));
    costs.decode_melem_s = static_cast<double>(codec_elems) * 1e3 /
                           static_cast<double>(std::max<int64_t>(decode_ns, 1));
    costs.bytes_per_elem = static_cast<double>(codec_bytes) /
                           static_cast<double>(codec_elems);
  }
  costs.allreduce_ms = Ms(allreduce_ns) / n;
  costs.virtual_ms = comm.TotalSeconds() * 1e3 / n;
  costs.messages = static_cast<double>(comm.messages) / n;
  costs.optimizer_ms = Ms(optimizer_ns) / n;
  return costs;
}

std::vector<GemmRate> MeasureGemms(const std::vector<GemmShape>& shapes) {
  std::vector<GemmRate> rates;
  for (const GemmShape& shape : shapes) {
    rates.push_back({shape.name, GemmGflops(shape.fwd), GemmGflops(shape.dw),
                     GemmGflops(shape.dx)});
  }
  return rates;
}

StatusOr<StorageStats> MeasureCheckpointSaves(const SyncTrainer& trainer,
                                              const std::string& dir,
                                              int saves) {
  auto storage = std::make_shared<TimedStorage>(ckpt::MakePosixStorage());
  ckpt::DurableCheckpointOptions options;
  options.save_dir = dir;
  options.keep = 2;
  options.storage = storage;
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<ckpt::CheckpointManager> manager,
                         ckpt::CheckpointManager::Create(options));
  ckpt::TrainerState state = trainer.CaptureState();
  for (int i = 0; i < saves; ++i) {
    state.iteration += 1;  // a fresh file name per save
    LPSGD_RETURN_IF_ERROR(manager->Save(state));
  }
  return storage->stats();
}

}  // namespace e2e
}  // namespace lpsgd

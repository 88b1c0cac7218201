// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "core/trainer.h"

#include "base/logging.h"
#include "base/strings.h"
#include "ckpt/fault_storage.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

constexpr obs::SpanSite kEpochSpan{"trainer/epoch", -1,
                                   "trainer/epoch_seconds"};
constexpr obs::SpanSite kIterationSpan{"trainer/iteration", -1,
                                       "trainer/iteration_seconds"};
constexpr obs::SpanSite kEvalSpan{"trainer/eval", -1, "trainer/eval_seconds"};

}  // namespace

obs::JsonValue EpochMetricsToJson(const EpochMetrics& metrics) {
  obs::JsonValue entry = obs::JsonValue::Object();
  entry.Set("epoch", int64_t{metrics.epoch});
  entry.Set("train_loss", metrics.train_loss);
  entry.Set("train_accuracy", metrics.train_accuracy);
  entry.Set("test_loss", metrics.test_loss);
  entry.Set("test_accuracy", metrics.test_accuracy);
  entry.Set("test_top5_accuracy", metrics.test_top5_accuracy);
  entry.Set("virtual_seconds", metrics.virtual_seconds);
  entry.Set("wall_seconds", metrics.wall_seconds);
  entry.Set("comm_seconds", metrics.comm.comm_seconds);
  entry.Set("encode_seconds", metrics.comm.encode_seconds);
  entry.Set("wire_bytes", metrics.comm.wire_bytes);
  entry.Set("raw_bytes", metrics.comm.raw_bytes);
  entry.Set("messages", metrics.comm.messages);
  entry.Set("compression_ratio", metrics.comm.CompressionRatio());
  return entry;
}

Status TrainerOptions::Validate() const {
  if (num_gpus < 1) {
    return InvalidArgumentError("num_gpus must be >= 1");
  }
  if (global_batch_size < num_gpus) {
    return InvalidArgumentError(
        StrCat("global batch ", global_batch_size, " smaller than ",
               num_gpus, " GPUs"));
  }
  if (global_batch_size % num_gpus != 0) {
    return InvalidArgumentError(
        StrCat("global batch ", global_batch_size, " not divisible by ",
               num_gpus, " GPUs"));
  }
  if (!(learning_rate > 0.0f)) {
    return InvalidArgumentError(
        StrCat("learning_rate must be > 0, got ", learning_rate));
  }
  for (size_t i = 1; i < lr_schedule.size(); ++i) {
    if (lr_schedule[i - 1].first >= lr_schedule[i].first) {
      return InvalidArgumentError(
          StrCat("lr_schedule epochs must be strictly increasing; epoch ",
                 lr_schedule[i].first, " follows epoch ",
                 lr_schedule[i - 1].first));
    }
  }
  if (eval_batch_size < 1) {
    return InvalidArgumentError(
        StrCat("eval_batch_size must be >= 1, got ", eval_batch_size));
  }
  if (execution.intra_op_threads < 0) {
    return InvalidArgumentError(
        StrCat("execution.intra_op_threads must be >= 0 (0 = auto), got ",
               execution.intra_op_threads));
  }
  LPSGD_RETURN_IF_ERROR(fault_tolerance.Validate());
  if (durable_checkpoint.enabled()) {
    LPSGD_RETURN_IF_ERROR(durable_checkpoint.Validate());
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<SyncTrainer>> SyncTrainer::Create(
    const NetworkFactory& factory, const TrainerOptions& options) {
  LPSGD_RETURN_IF_ERROR(options.Validate());

  // Materialize the thread pool once; the trainer and the aggregator
  // share it (one pool per run, never one per component).
  TrainerOptions resolved = options;
  resolved.execution = options.execution.Materialized();

  std::vector<Network> replicas;
  replicas.reserve(static_cast<size_t>(resolved.num_gpus));
  for (int r = 0; r < resolved.num_gpus; ++r) {
    replicas.push_back(factory(resolved.seed));
  }

  LPSGD_ASSIGN_OR_RETURN(
      std::unique_ptr<GradientAggregator> aggregator,
      CreateAggregator(resolved.primitive, resolved.num_gpus,
                       resolved.codec, resolved.machine, resolved.execution,
                       resolved.fault_tolerance.retry,
                       fault::MakeAggregatorDecorator(
                           resolved.fault_tolerance.plan, resolved.codec)));

  std::unique_ptr<SyncTrainer> trainer(new SyncTrainer(
      resolved, std::move(replicas), std::move(aggregator)));
  // Defend against non-deterministic factories: force identical weights.
  trainer->MirrorParams();
  LPSGD_RETURN_IF_ERROR(trainer->SetUpDurableCheckpoint());
  return trainer;
}

StatusOr<std::unique_ptr<SyncTrainer>> SyncTrainer::Restore(
    const NetworkFactory& factory, const TrainerOptions& options,
    const ckpt::TrainerState& state) {
  LPSGD_ASSIGN_OR_RETURN(std::unique_ptr<SyncTrainer> trainer,
                         Create(factory, options));
  LPSGD_RETURN_IF_ERROR(trainer->ApplyState(state));
  if (obs::ReportEnabled() && state.rank_count != options.num_gpus) {
    obs::JsonValue fields = obs::JsonValue::Object();
    fields.Set("from_ranks", static_cast<int64_t>(state.rank_count));
    fields.Set("to_ranks", int64_t{options.num_gpus});
    fields.Set("iteration", state.iteration);
    obs::RecordEntry("restore_rescale", std::move(fields));
  }
  return trainer;
}

Status SyncTrainer::SetUpDurableCheckpoint() {
  if (!options_.durable_checkpoint.enabled()) return OkStatus();
  ckpt::DurableCheckpointOptions durable = options_.durable_checkpoint;
  std::shared_ptr<ckpt::Storage> storage =
      durable.storage != nullptr ? durable.storage
                                 : ckpt::MakePosixStorage();
  if (options_.fault_tolerance.plan.HasStorageFaults()) {
    storage = std::make_shared<ckpt::FaultInjectingStorage>(
        std::move(storage), options_.fault_tolerance.plan);
  }
  durable.storage = std::move(storage);
  LPSGD_ASSIGN_OR_RETURN(ckpt_manager_,
                         ckpt::CheckpointManager::Create(std::move(durable)));
  return OkStatus();
}

SyncTrainer::SyncTrainer(TrainerOptions options,
                         std::vector<Network> replicas,
                         std::unique_ptr<GradientAggregator> aggregator)
    : options_(std::move(options)),
      replicas_(std::move(replicas)),
      optimizer_(options_.learning_rate, options_.momentum),
      aggregator_(std::move(aggregator)),
      live_gpus_(static_cast<int>(replicas_.size())),
      active_plan_(options_.fault_tolerance.plan) {
  replica_params_.reserve(replicas_.size());
  for (Network& replica : replicas_) {
    replica_params_.push_back(replica.Params());
  }
  const size_t num_matrices = replica_params_[0].size();
  for (const auto& params : replica_params_) {
    CHECK_EQ(params.size(), num_matrices);
  }

  quantize_matrix_ =
      ChooseQuantizedMatrices(replica_params_[0], options_.policy);

  // Error-feedback residuals, one per (rank, matrix), zero-initialized.
  // A matrix needs a residual when the engine will actually run the
  // codec on it: always under MPI, and on the sparse wire path under
  // NCCL (the fp32 ring never encodes dense codecs — it simulates their
  // payload size; same criterion as NcclRingAggregator's sparse check).
  auto codec_or = options_.codec.Create();
  CHECK_OK(codec_or.status());
  const bool uses_error_feedback = codec_or.value()->UsesErrorFeedback();
  errors_.resize(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    errors_[r].resize(num_matrices);
    if (uses_error_feedback) {
      for (size_t m = 0; m < num_matrices; ++m) {
        const Shape& quant_shape = replica_params_[0][m].quant_shape;
        const bool engine_encodes =
            options_.primitive == CommPrimitive::kMpi ||
            codec_or.value()->SparseCount(quant_shape) > 0;
        if (quantize_matrix_[m] && engine_encodes) {
          errors_[r][m].assign(
              static_cast<size_t>(quant_shape.element_count()), 0.0f);
        }
      }
    }
  }

  slot_phases_.resize(static_cast<size_t>(options_.execution.threads()));
}

ckpt::TrainerState SyncTrainer::CaptureState() const {
  ckpt::TrainerState state;
  CaptureStateAt(/*loss_sum=*/0.0, /*correct=*/0, /*samples=*/0,
                 /*cursor=*/0, &state);
  return state;
}

void SyncTrainer::CaptureStateAt(double loss_sum, int64_t correct,
                                 int64_t samples, int64_t cursor,
                                 ckpt::TrainerState* state) const {
  state->seed = options_.seed;
  state->codec = options_.codec.Label();
  state->rank_count = live_gpus_;
  state->iteration = iteration_;
  state->epochs_completed = epochs_completed_;
  state->epoch_batch_cursor = cursor;
  state->epoch_loss_sum = loss_sum;
  state->epoch_correct = correct;
  state->epoch_samples = samples;
  state->virtual_seconds = virtual_seconds_;
  state->params.resize(replica_params_[0].size());
  for (size_t m = 0; m < replica_params_[0].size(); ++m) {
    const Tensor& value = *replica_params_[0][m].value;
    ckpt::TensorEntry& entry = state->params[m];
    entry.name = replica_params_[0][m].name;
    entry.dims = value.shape().dims();
    entry.data.assign(value.data(), value.data() + value.size());
  }
  const std::vector<Tensor>& velocity = optimizer_.velocity();
  state->optimizer.resize(velocity.size());
  for (size_t m = 0; m < velocity.size(); ++m) {
    ckpt::TensorEntry& entry = state->optimizer[m];
    entry.dims = velocity[m].shape().dims();
    entry.data.assign(velocity[m].data(),
                      velocity[m].data() + velocity[m].size());
  }
  state->residuals = errors_;
  aggregator_->ExportExchangeState(&state->aggregator_state);
  // The deterministic streams, recorded for provenance: everything the run
  // draws is recomputable from these plus (iteration, matrix, rank)
  // counters, which is why no generator cursor needs persisting.
  state->rng_streams = {{"init", options_.seed},
                        {"shuffle", options_.seed ^ 0xdadaULL}};
}

Status SyncTrainer::ValidateState(const ckpt::TrainerState& state) const {
  if (state.seed != options_.seed) {
    return FailedPreconditionError(
        StrCat("checkpoint seed ", state.seed, " does not match run seed ",
               options_.seed, "; the data order would diverge"));
  }
  if (state.codec != options_.codec.Label()) {
    return FailedPreconditionError(
        StrCat("checkpoint codec \"", state.codec,
               "\" does not match run codec \"", options_.codec.Label(),
               "\""));
  }
  if (state.rank_count < 1) {
    return FailedPreconditionError("checkpoint has no ranks");
  }
  // Parameters: names and shapes must line up exactly.
  const std::vector<ParamRef>& params = replica_params_[0];
  if (state.params.size() != params.size()) {
    return FailedPreconditionError(
        StrCat("checkpoint has ", state.params.size(),
               " parameter matrices, model has ", params.size()));
  }
  for (size_t m = 0; m < params.size(); ++m) {
    const ckpt::TensorEntry& entry = state.params[m];
    if (entry.name != params[m].name) {
      return FailedPreconditionError(
          StrCat("checkpoint param \"", entry.name,
                 "\" does not match model param \"", params[m].name, "\""));
    }
    if (entry.dims != params[m].value->shape().dims() ||
        static_cast<int64_t>(entry.data.size()) != params[m].value->size()) {
      return FailedPreconditionError(
          StrCat("checkpoint param \"", entry.name, "\" shape mismatch"));
    }
  }
  // Optimizer momentum: either absent (pre-first-step checkpoint) or one
  // tensor per parameter.
  if (!state.optimizer.empty() &&
      state.optimizer.size() != state.params.size()) {
    return FailedPreconditionError(
        StrCat("checkpoint has ", state.optimizer.size(),
               " momentum tensors for ", state.params.size(), " parameters"));
  }
  for (size_t m = 0; m < state.optimizer.size(); ++m) {
    const ckpt::TensorEntry& entry = state.optimizer[m];
    if (static_cast<int64_t>(entry.data.size()) !=
            Shape(entry.dims).element_count() ||
        entry.data.size() != state.params[m].data.size()) {
      return FailedPreconditionError(
          StrCat("checkpoint momentum tensor ", m, " shape mismatch"));
    }
  }
  // Residuals: absent (residual-free configuration) or, for every old
  // rank, one residual per matrix sized like this trainer's (every rank's
  // residuals have the same sizes, so each old rank is checked against
  // rank 0's).
  for (const auto& rank_residuals : state.residuals) {
    if (rank_residuals.size() != errors_[0].size()) {
      return FailedPreconditionError(
          StrCat("checkpoint has ", rank_residuals.size(),
                 " residual matrices per rank, model has ",
                 errors_[0].size()));
    }
    for (size_t m = 0; m < rank_residuals.size(); ++m) {
      if (rank_residuals[m].size() != errors_[0][m].size()) {
        return FailedPreconditionError(StrCat(
            "checkpoint residual for matrix ", m, " has ",
            rank_residuals[m].size(), " elements, trainer expects ",
            errors_[0][m].size(), " (codec/primitive mismatch?)"));
      }
    }
  }
  return OkStatus();
}

void SyncTrainer::InstallState(const ckpt::TrainerState& state) {
  for (size_t m = 0; m < state.params.size(); ++m) {
    std::copy(state.params[m].data.begin(), state.params[m].data.end(),
              replica_params_[0][m].value->data());
  }
  MirrorParams();
  std::vector<Tensor> velocity;
  velocity.reserve(state.optimizer.size());
  for (const ckpt::TensorEntry& entry : state.optimizer) {
    Tensor tensor{Shape(entry.dims)};
    std::copy(entry.data.begin(), entry.data.end(), tensor.data());
    velocity.push_back(std::move(tensor));
  }
  optimizer_.set_velocity(std::move(velocity));
  // Residuals, remapped elastically (see Restore()); an empty section
  // keeps the current ones.
  const int old_ranks = static_cast<int>(state.residuals.size());
  const int new_ranks = live_gpus_;
  for (int r = 0; r < new_ranks && old_ranks > 0; ++r) {
    for (size_t m = 0; m < errors_[0].size(); ++m) {
      std::vector<float>& dst = errors_[static_cast<size_t>(r)][m];
      if (dst.empty()) continue;
      if (new_ranks == old_ranks) {
        dst = state.residuals[static_cast<size_t>(r)][m];
      } else if (new_ranks < old_ranks) {
        // Shrink: fold the departing ranks' residuals onto the survivors
        // (o % new_ranks == r), preserving the total residual mass.
        std::fill(dst.begin(), dst.end(), 0.0f);
        for (int o = r; o < old_ranks; o += new_ranks) {
          const std::vector<float>& src =
              state.residuals[static_cast<size_t>(o)][m];
          for (size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
        }
      } else {
        // Grow: replicate old rank (r % old) onto the new rank, scaled by
        // old/new so the summed residual mass is unchanged.
        const float scale = static_cast<float>(old_ranks) /
                            static_cast<float>(new_ranks);
        dst = state.residuals[static_cast<size_t>(r % old_ranks)][m];
        for (float& value : dst) value *= scale;
      }
    }
  }
  iteration_ = state.iteration;
}

Status SyncTrainer::ApplyState(const ckpt::TrainerState& state) {
  LPSGD_RETURN_IF_ERROR(ValidateState(state));
  // The aggregator import is the one install step that can still fail (a
  // stateless engine refuses owner residuals); it runs first and changes
  // nothing when it does.
  LPSGD_RETURN_IF_ERROR(
      aggregator_->ImportExchangeState(state.aggregator_state));
  InstallState(state);
  virtual_seconds_ = state.virtual_seconds;
  epochs_completed_ = state.epochs_completed;
  // Re-derive the effective learning rate for the resume position: the
  // optimizer is fresh, so schedule entries from earlier epochs must be
  // re-applied (Train() only applies the entry for the epoch it starts).
  float lr = options_.learning_rate;
  for (const auto& [at_epoch, scheduled] : options_.lr_schedule) {
    if (at_epoch <= state.epochs_completed) lr = scheduled;
  }
  optimizer_.set_learning_rate(lr);
  pending_resume_ =
      state.epoch_batch_cursor > 0 || state.epoch_samples > 0;
  resume_cursor_ = state.epoch_batch_cursor;
  resume_loss_sum_ = state.epoch_loss_sum;
  resume_correct_ = state.epoch_correct;
  resume_samples_ = state.epoch_samples;
  recovery_valid_ = false;
  replay_.clear();
  steps_since_snapshot_ = 0;
  recoveries_used_ = 0;
  return OkStatus();
}

Status SyncTrainer::SaveDurableNow() {
  if (ckpt_manager_ == nullptr) {
    return FailedPreconditionError(
        "durable checkpointing is disabled (no save_dir)");
  }
  return ckpt_manager_->Save(CaptureState());
}

Status SyncTrainer::AfterCommit(double loss_sum, int64_t correct,
                                int64_t samples, int64_t cursor) {
  if (ckpt_manager_ != nullptr) {
    const int every = options_.durable_checkpoint.save_every;
    if (every > 0 && iteration_ % every == 0) {
      ckpt::TrainerState state;
      CaptureStateAt(loss_sum, correct, samples, cursor, &state);
      LPSGD_RETURN_IF_ERROR(ckpt_manager_->Save(state));
    }
  }
  // kill@ fires after the durable save above, so the chaos harness can
  // kill exactly at a checkpointed iteration. A killed process must be
  // restarted with the kill stripped from its plan (the fault already
  // happened); Train returns this error directly — IsRankCrash never
  // matches it, so it cannot leak into the degrade-to-survivors path.
  if (active_plan_.KillsAt(iteration_)) {
    return fault::ProcessKillError(iteration_);
  }
  return OkStatus();
}

void SyncTrainer::MirrorParams() {
  CHECK_OK(options_.execution.ParallelFor(
      1, live_gpus_, [this](int64_t rank) -> Status {
        const std::vector<ParamRef>& params =
            replica_params_[static_cast<size_t>(rank)];
        for (size_t m = 0; m < params.size(); ++m) {
          *params[m].value = *replica_params_[0][m].value;  // no allocation
        }
        return OkStatus();
      }));
}

Network& SyncTrainer::replica(int rank) {
  CHECK_GE(rank, 0);
  CHECK_LT(rank, static_cast<int>(replicas_.size()));
  return replicas_[static_cast<size_t>(rank)];
}

Status SyncTrainer::TrainIteration(const Batch& batch, double* loss_sum,
                                   int64_t* correct) {
  obs::Span iteration_span(kIterationSpan);
  const double virtual_start = virtual_seconds_;
  // Open the step for phase attribution. A failed iteration is never
  // EndStep'ed: the next BeginStep discards its partial phases, and the
  // slot scratch is cleared here so spans from a failed attempt cannot
  // leak into the retried iteration's breakdown.
  obs::Profiler& profiler = obs::Profiler::Global();
  if (obs::ProfileEnabled()) {
    profiler.BeginStep(iteration_);
    for (obs::PhaseTimes& phases : slot_phases_) phases.Clear();
  }
  const int k = live_gpus_;
  const int64_t shard = batch.size() / k;
  if (shard == 0) {
    return InvalidArgumentError("batch smaller than GPU count");
  }

  const Shape sample_shape = [&] {
    std::vector<int64_t> dims(batch.inputs.shape().dims().begin() + 1,
                              batch.inputs.shape().dims().end());
    return Shape(dims);
  }();
  const int64_t sample_elems = sample_shape.element_count();

  // Phase 1 (parallel across ranks): local forward/backward on the shard.
  // Each rank touches only its own replica and shard; the per-rank loss
  // sums land in disjoint slots and are reduced in rank order below, so
  // the totals are bit-identical at any thread count.
  rank_loss_.assign(static_cast<size_t>(k), 0.0);
  rank_correct_.assign(static_cast<size_t>(k), 0);
  std::vector<double>& rank_loss = rank_loss_;
  std::vector<int64_t>& rank_correct = rank_correct_;
  LPSGD_RETURN_IF_ERROR(options_.execution.ParallelFor(
      0, k, [&](int64_t rank) -> Status {
        const int r = static_cast<int>(rank);
        const int slot_id = ThreadPool::CurrentSlot();
        CHECK_LT(static_cast<size_t>(slot_id), slot_phases_.size());
        obs::PhaseTimes& phases = slot_phases_[static_cast<size_t>(slot_id)];
        Network& replica = replicas_[static_cast<size_t>(r)];

        LossResult loss = [&] {
          obs::Span forward_span(obs::kPhaseForward, &phases, -1, r);
          replica.ZeroGrads();

          std::vector<int64_t> dims;
          dims.push_back(shard);
          for (int64_t d : sample_shape.dims()) dims.push_back(d);
          Tensor inputs{Shape(dims)};
          std::vector<int> labels(static_cast<size_t>(shard));
          const int64_t begin = r * shard;
          std::copy(batch.inputs.data() + begin * sample_elems,
                    batch.inputs.data() + (begin + shard) * sample_elems,
                    inputs.data());
          for (int64_t i = 0; i < shard; ++i) {
            labels[static_cast<size_t>(i)] =
                batch.labels[static_cast<size_t>(begin + i)];
          }

          Tensor logits = replica.Forward(inputs, /*training=*/true);
          return SoftmaxCrossEntropy(logits, labels);
        }();
        rank_loss[static_cast<size_t>(r)] = loss.loss_sum;
        rank_correct[static_cast<size_t>(r)] = loss.correct;
        {
          obs::Span backward_span(obs::kPhaseBackward, &phases, -1, r);
          replica.Backward(loss.logits_grad);
        }
        return OkStatus();
      }));

  // Phase 2: synchronous gradient exchange (Algorithm 1, lines 3-8). The
  // slot list is refilled into persistent scratch; the nested rank vectors
  // keep their capacity across iterations.
  const size_t num_matrices = replica_params_[0].size();
  slots_.resize(num_matrices);
  {
    // Slot refill is serial staging work for the exchange.
    obs::Span staging_span(obs::kPhaseSum, &slot_phases_[0]);
    for (size_t m = 0; m < num_matrices; ++m) {
      MatrixSlot& slot = slots_[m];
      slot.quant_shape = replica_params_[0][m].quant_shape;
      slot.quantized = quantize_matrix_[m];
      slot.rank_grads.clear();
      slot.rank_errors.clear();
      for (int r = 0; r < k; ++r) {
        slot.rank_grads.push_back(
            replica_params_[static_cast<size_t>(r)][m].grad->data());
        slot.rank_errors.push_back(&errors_[static_cast<size_t>(r)][m]);
      }
    }
  }
  LPSGD_ASSIGN_OR_RETURN(CommStats stats,
                         aggregator_->AllReduce(&slots_, iteration_));
  total_comm_.Add(stats);
  virtual_seconds_ += stats.TotalSeconds() +
                      options_.virtual_compute_seconds_per_iter;

  // Phase 3: identical averaged update. Every rank holds the same reduced
  // gradient, so rank 0's alone is scaled and stepped, and the stepped
  // parameters are mirrored into the other ranks.
  {
    obs::Span optimizer_span(obs::kPhaseOptimizer, &slot_phases_[0]);
    const float inv_k = 1.0f / static_cast<float>(k);
    for (ParamRef& param : replica_params_[0]) Scale(inv_k, param.grad);
    optimizer_.Step(replica_params_[0]);
    MirrorParams();
  }

  // Commit only now that every phase succeeded: a failed iteration must
  // leave the epoch accumulators and the iteration counter untouched so a
  // retried exchange reuses the same deterministic tags.
  for (int r = 0; r < k; ++r) {
    *loss_sum += rank_loss[static_cast<size_t>(r)];
    *correct += rank_correct[static_cast<size_t>(r)];
  }
  ++iteration_;
  if (obs::MetricsEnabled()) {
    obs::Count("trainer/iterations");
    obs::Count("trainer/samples", batch.size());
    obs::SetGauge("trainer/virtual_seconds", virtual_seconds_);
  }
  if (obs::ProfileEnabled()) {
    // Attribute the step's virtual charges, fold the trainer's slot scratch
    // (the aggregators folded theirs during AllReduce), and close the step.
    obs::PhaseTimes& charges = slot_phases_[0];
    charges.AddVirtual(obs::kPhaseWire, stats.comm_seconds);
    charges.AddVirtual(obs::kPhaseEncode, stats.encode_seconds);
    charges.AddVirtual(obs::kPhaseForward,
                       options_.virtual_compute_seconds_per_iter);
    for (obs::PhaseTimes& phases : slot_phases_) {
      profiler.AddPhases(phases);
      phases.Clear();
    }
    profiler.EndStep(stats.TotalSeconds() +
                     options_.virtual_compute_seconds_per_iter);
  }
  iteration_span.set_virtual_range(virtual_start, virtual_seconds_);
  return OkStatus();
}

StatusOr<std::vector<EpochMetrics>> SyncTrainer::Train(const Dataset& train,
                                                       const Dataset& test,
                                                       int epochs) {
  std::vector<EpochMetrics> metrics;
  BatchIterator iterator(&train, options_.global_batch_size,
                         options_.seed ^ 0xdadaULL);

  for (int e = 0; e < epochs; ++e) {
    const int epoch = epochs_completed_;
    for (const auto& [at_epoch, lr] : options_.lr_schedule) {
      if (at_epoch == epoch) optimizer_.set_learning_rate(lr);
    }

    obs::Span epoch_span(kEpochSpan);
    const double virtual_epoch_start = virtual_seconds_;
    const double wall_start = obs::MonotonicSeconds();
    const CommStats comm_start = total_comm_;
    iterator.StartEpoch(epoch);

    double loss_sum = 0.0;
    int64_t correct = 0;
    int64_t samples = 0;
    // NextBatch calls consumed this epoch; durable checkpoints record it
    // so a restored run resumes at the exact batch.
    int64_t cursor = 0;
    if (pending_resume_) {
      // Resuming mid-epoch from a durable checkpoint: seed the epoch
      // accumulators with the persisted partial sums and fast-forward the
      // deterministic batch stream to the recorded cursor.
      pending_resume_ = false;
      loss_sum = resume_loss_sum_;
      correct = resume_correct_;
      samples = resume_samples_;
      Batch skipped;
      while (cursor < resume_cursor_ && iterator.NextBatch(&skipped)) {
        ++cursor;
      }
    }
    // The snapshot holds epoch-local accumulators, so it cannot outlive
    // the epoch that took it.
    recovery_valid_ = false;
    replay_.clear();
    steps_since_snapshot_ = 0;
    const int checkpoint_every = options_.fault_tolerance.checkpoint_every;
    Batch batch;
    while (iterator.NextBatch(&batch)) {
      ++cursor;
      if (batch.size() < live_gpus_) continue;  // skip tiny remainder
      TrimBatch(&batch);  // shards stay equal across live ranks
      if (checkpoint_every > 0 &&
          (!recovery_valid_ || steps_since_snapshot_ >= checkpoint_every)) {
        // Taken before the current batch trains, so its cursor excludes it.
        CaptureStateAt(loss_sum, correct, samples, cursor - 1, &recovery_);
        recovery_valid_ = true;
        replay_.clear();
        steps_since_snapshot_ = 0;
      }
      const Status step = TrainIteration(batch, &loss_sum, &correct);
      if (step.ok()) {
        samples += batch.size();
        ++steps_since_snapshot_;
        if (checkpoint_every > 0) replay_.push_back(batch);
      } else {
        LPSGD_RETURN_IF_ERROR(
            Recover(step, batch, &loss_sum, &correct, &samples));
      }
      LPSGD_RETURN_IF_ERROR(AfterCommit(loss_sum, correct, samples, cursor));
    }

    EpochMetrics m;
    m.epoch = epoch;
    if (samples > 0) {
      m.train_loss = loss_sum / static_cast<double>(samples);
      m.train_accuracy =
          static_cast<double>(correct) / static_cast<double>(samples);
    }
    const EvalResult eval = Evaluate(test);
    m.test_loss = eval.loss_sum / static_cast<double>(test.NumSamples());
    m.test_accuracy = static_cast<double>(eval.correct) /
                      static_cast<double>(test.NumSamples());
    m.test_top5_accuracy = static_cast<double>(eval.correct_top5) /
                           static_cast<double>(test.NumSamples());
    wall_seconds_ += obs::MonotonicSeconds() - wall_start;
    m.wall_seconds = wall_seconds_;
    m.virtual_seconds = virtual_seconds_;
    m.comm = total_comm_;
    // Report only this epoch's communication delta.
    m.comm.comm_seconds -= comm_start.comm_seconds;
    m.comm.encode_seconds -= comm_start.encode_seconds;
    m.comm.wire_bytes -= comm_start.wire_bytes;
    m.comm.raw_bytes -= comm_start.raw_bytes;
    m.comm.messages -= comm_start.messages;

    if (obs::MetricsEnabled()) obs::Count("trainer/epochs");
    epoch_span.set_virtual_range(virtual_epoch_start, virtual_seconds_);
    obs::RecordEntry("epoch", EpochMetricsToJson(m));

    metrics.push_back(m);
    ++epochs_completed_;
  }
  return metrics;
}

void SyncTrainer::TrimBatch(Batch* batch) const {
  const int64_t usable = batch->size() / live_gpus_ * live_gpus_;
  if (usable == batch->size()) return;
  batch->labels.resize(static_cast<size_t>(usable));
  Tensor trimmed(Shape([&] {
    std::vector<int64_t> dims = batch->inputs.shape().dims();
    dims[0] = usable;
    return dims;
  }()));
  std::copy(batch->inputs.data(), batch->inputs.data() + trimmed.size(),
            trimmed.data());
  batch->inputs = std::move(trimmed);
}

Status SyncTrainer::DropRank(int rank) {
  if (rank < 0 || rank >= live_gpus_) {
    return InternalError(
        StrCat("cannot drop rank ", rank, ": only ", live_gpus_,
               " live ranks"));
  }
  const size_t r = static_cast<size_t>(rank);
  replicas_.erase(replicas_.begin() + static_cast<std::ptrdiff_t>(r));
  errors_.erase(errors_.begin() + static_cast<std::ptrdiff_t>(r));
  if (recovery_valid_) {
    recovery_.residuals.erase(recovery_.residuals.begin() +
                              static_cast<std::ptrdiff_t>(r));
    --recovery_.rank_count;
  }
  --live_gpus_;
  replica_params_.clear();
  for (Network& replica : replicas_) {
    replica_params_.push_back(replica.Params());
  }

  // The survivors need a fresh aggregator sized to the new rank count; the
  // satisfied crash is stripped so the rebuilt injector does not re-abort.
  active_plan_ = active_plan_.WithoutCrashes();
  LPSGD_ASSIGN_OR_RETURN(
      aggregator_,
      CreateAggregator(options_.primitive, live_gpus_, options_.codec,
                       options_.machine, options_.execution,
                       options_.fault_tolerance.retry,
                       fault::MakeAggregatorDecorator(active_plan_,
                                                      options_.codec)));
  if (obs::ReportEnabled()) {
    obs::JsonValue fields = obs::JsonValue::Object();
    fields.Set("rank", rank);
    fields.Set("live_gpus", live_gpus_);
    fields.Set("iteration", iteration_);
    obs::RecordEntry("rank_dropped", std::move(fields));
  }
  return OkStatus();
}

Status SyncTrainer::Recover(const Status& failure, const Batch& batch,
                            double* loss_sum, int64_t* correct,
                            int64_t* samples) {
  Status status = failure;
  Batch current = batch;
  for (;;) {
    ++recoveries_used_;
    if (recoveries_used_ > options_.fault_tolerance.max_recoveries) {
      return status;
    }

    int crashed_rank = -1;
    if (fault::IsRankCrash(status, &crashed_rank)) {
      if (!options_.fault_tolerance.degrade_to_survivors ||
          live_gpus_ <= 1) {
        return status;
      }
      LPSGD_RETURN_IF_ERROR(DropRank(crashed_rank));
    } else if (!recovery_valid_) {
      // A non-crash failure that survived the retry layer, and nothing to
      // roll back to: surface it.
      return status;
    }

    if (recovery_valid_) {
      // Rollback rewinds what InstallState covers plus the epoch
      // accumulators. It deliberately leaves the virtual clock, the comm
      // totals and the aggregator's owner residuals as they are (DESIGN.md
      // "Fault model and recovery").
      LPSGD_RETURN_IF_ERROR(ValidateState(recovery_));
      InstallState(recovery_);
      *loss_sum = recovery_.epoch_loss_sum;
      *correct = recovery_.epoch_correct;
      *samples = recovery_.epoch_samples;
      if (obs::MetricsEnabled()) obs::Count("trainer/rollbacks");
      if (obs::ReportEnabled()) {
        obs::JsonValue fields = obs::JsonValue::Object();
        fields.Set("iteration", recovery_.iteration);
        fields.Set("replay_batches",
                   static_cast<int64_t>(replay_.size()));
        fields.Set("cause", status.message());
        obs::RecordEntry("rollback", std::move(fields));
      }
      // Replay the batches committed since the snapshot (re-trimmed in
      // case a rank was just dropped).
      bool replayed = true;
      for (Batch& replay_batch : replay_) {
        TrimBatch(&replay_batch);
        status = TrainIteration(replay_batch, loss_sum, correct);
        if (!status.ok()) {
          replayed = false;
          break;
        }
        *samples += replay_batch.size();
      }
      if (!replayed) continue;  // a fault struck mid-replay; recover again
    }

    // Re-run the batch that originally failed.
    TrimBatch(&current);
    status = TrainIteration(current, loss_sum, correct);
    if (status.ok()) {
      *samples += current.size();
      steps_since_snapshot_ =
          static_cast<int>(replay_.size()) + 1;
      if (options_.fault_tolerance.checkpoint_every > 0) {
        replay_.push_back(current);
      }
      return OkStatus();
    }
  }
}

EvalResult SyncTrainer::Evaluate(const Dataset& dataset) {
  obs::Span eval_span(kEvalSpan);
  EvalResult total;
  Network& net = replicas_[0];
  const int64_t batch_size = options_.eval_batch_size;
  const int64_t sample_elems = dataset.SampleShape().element_count();
  std::vector<int64_t> indices;
  std::vector<EvalResult> rows;
  for (int64_t begin = 0; begin < dataset.NumSamples();
       begin += batch_size) {
    const int64_t end = std::min(begin + batch_size, dataset.NumSamples());
    const int64_t n = end - begin;
    indices.resize(static_cast<size_t>(n));
    for (int64_t i = begin; i < end; ++i) {
      indices[static_cast<size_t>(i - begin)] = i;
    }
    // Read on this thread: a Dataset need not be thread-safe.
    const Batch batch = MakeBatch(dataset, indices);

    // Eval passes write no layer state and every row's logits depend on
    // that row only (nn/layer.h), so each thread runs replica 0 on its own
    // slice of rows and leaves one result per sample.
    rows.resize(static_cast<size_t>(n));
    const int64_t slices = std::min<int64_t>(options_.execution.threads(), n);
    CHECK_OK(options_.execution.ParallelFor(
        0, slices, [&](int64_t slice) -> Status {
          const int64_t first = slice * n / slices;
          const int64_t last = (slice + 1) * n / slices;
          std::vector<int64_t> dims = batch.inputs.shape().dims();
          dims[0] = last - first;
          Tensor inputs{Shape(dims)};
          std::copy(batch.inputs.data() + first * sample_elems,
                    batch.inputs.data() + last * sample_elems,
                    inputs.data());
          const Tensor logits = net.Forward(inputs, /*training=*/false);
          Tensor probs(logits.shape());
          SoftmaxRows(logits, &probs);
          for (int64_t r = 0; r < last - first; ++r) {
            rows[static_cast<size_t>(first + r)] =
                EvaluateSoftmaxCrossEntropyRow(
                    logits, probs, r,
                    batch.labels[static_cast<size_t>(first + r)]);
          }
          return OkStatus();
        }));
    // Summed here, in sample order and per batch, exactly as a serial
    // EvaluateSoftmaxCrossEntropy over the batch: bit-identical at any
    // thread count.
    EvalResult batch_result;
    for (const EvalResult& row : rows) batch_result.Add(row);
    total.Add(batch_result);
  }
  return total;
}

}  // namespace lpsgd

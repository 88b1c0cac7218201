// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_CORE_TRAINER_H_
#define LPSGD_CORE_TRAINER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "base/thread_pool.h"
#include "ckpt/manager.h"
#include "comm/allreduce.h"
#include "data/dataset.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "machine/specs.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "quant/codec.h"
#include "quant/policy.h"
#include "sim/perf_model.h"

namespace lpsgd {

// Configuration of one synchronous data-parallel training run
// (Algorithm 1 with pluggable Encode/Decode).
struct TrainerOptions {
  int num_gpus = 4;
  int64_t global_batch_size = 64;  // split evenly across GPUs
  float learning_rate = 0.05f;
  float momentum = 0.9f;
  // Epoch -> new learning rate (applied at the start of that epoch).
  std::vector<std::pair<int, float>> lr_schedule;

  CodecSpec codec;  // gradient communication precision
  CommPrimitive primitive = CommPrimitive::kMpi;
  MachineSpec machine = Ec2P2_8xlarge();  // timing model for virtual clocks
  QuantizationPolicyOptions policy;

  // Virtual compute seconds charged per iteration (e.g. from a PerfModel
  // of the corresponding full-scale network); 0 to track only
  // communication time.
  double virtual_compute_seconds_per_iter = 0.0;

  uint64_t seed = 42;
  int eval_batch_size = 256;

  // Fault injection and recovery policy (DESIGN.md "Fault model and
  // recovery"): the fault plan replayed at the aggregator boundary, the
  // per-exchange retry budget, and the trainer's checkpoint cadence.
  // Default-constructed = all disabled; the trainer behaves exactly as
  // before.
  fault::FaultToleranceOptions fault_tolerance;

  // Durable crash-consistent checkpointing (DESIGN.md "Durable
  // crash-consistent checkpointing"): when save_dir is set the trainer
  // writes a full-state checkpoint every save_every committed iterations
  // (temp + fsync + atomic rename + manifest), and SyncTrainer::Restore
  // reconstructs a trainer from the newest intact file — optionally at a
  // different rank count. Default-constructed = disabled.
  ckpt::DurableCheckpointOptions durable_checkpoint;

  // Host-side execution of the per-rank work (forward/backward, codec
  // kernels, parameter mirror). Defaults to one pool sized to the hardware
  // concurrency; ExecutionContext::Serial() reproduces the historical
  // rank-by-rank order. Results are bit-identical at any thread count.
  ExecutionContext execution;

  // Checks the configuration for internal consistency: num_gpus >= 1, the
  // global batch divisible by (and no smaller than) the GPU count, a
  // positive learning rate, an lr_schedule sorted by epoch, a positive
  // eval batch, and a non-negative thread request. Called by
  // SyncTrainer::Create before any resources are allocated.
  [[nodiscard]] Status Validate() const;
};

// Per-epoch training metrics.
struct EpochMetrics {
  int epoch = 0;
  double train_loss = 0.0;       // mean over training samples seen
  double train_accuracy = 0.0;   // fraction correct on training batches
  double test_loss = 0.0;          // mean over the test set
  double test_accuracy = 0.0;      // top-1 fraction correct on the test set
  double test_top5_accuracy = 0.0; // top-5 fraction correct on the test set
  double virtual_seconds = 0.0;  // cumulative simulated time since start
  double wall_seconds = 0.0;     // cumulative host wall time
  CommStats comm;                // this epoch's communication accounting
};

// The run-report "epoch" entry for one epoch's metrics (the trainer emits
// one per epoch into obs::RunReport::Global() while reporting is enabled).
obs::JsonValue EpochMetricsToJson(const EpochMetrics& metrics);

// Synchronous data-parallel SGD over K simulated GPU ranks (Section 2.1).
// Ranks execute sequentially in program order but semantically in
// parallel: every rank computes gradients on its shard of the global
// batch, gradients are exchanged through a GradientAggregator (MPI
// reduce-and-broadcast or NCCL ring), and every rank receives the identical
// averaged gradient, so one optimizer steps rank 0's parameters and they
// are copied into the other replicas: bit-identical by construction.
class SyncTrainer {
 public:
  // Builds one model replica; must be deterministic in `seed` (every rank
  // starts from identical weights, enforced by copying rank 0's).
  using NetworkFactory = std::function<Network(uint64_t seed)>;

  [[nodiscard]] static StatusOr<std::unique_ptr<SyncTrainer>> Create(
      const NetworkFactory& factory, const TrainerOptions& options);

  // Reconstructs a trainer from a durable checkpoint (ckpt::TrainerState,
  // typically from CheckpointManager::RestoreLatest). The state's seed and
  // codec must match `options`; the rank count may differ — elastic
  // restore remaps the per-rank error-feedback residuals:
  //   - same count: imported verbatim (bit-equal resume);
  //   - shrink (R1 < R0): new rank r sums old ranks o with o % R1 == r,
  //     preserving total residual mass (the PR-5 renormalization idea
  //     applied to persisted state);
  //   - grow (R1 > R0): new rank r inherits old rank (r % R0)'s residual
  //     scaled by R0/R1, again preserving total mass.
  // Mid-epoch checkpoints resume at the exact batch cursor, so a
  // same-rank-count restore continues bit-identically.
  [[nodiscard]] static StatusOr<std::unique_ptr<SyncTrainer>> Restore(
      const NetworkFactory& factory, const TrainerOptions& options,
      const ckpt::TrainerState& state);

  // Runs `epochs` epochs over `train`, evaluating on `test` after each.
  // Appends to any previous training (the trainer is resumable).
  [[nodiscard]] StatusOr<std::vector<EpochMetrics>> Train(
      const Dataset& train, const Dataset& test, int epochs);

  // Evaluates replica 0 on `dataset` (eval mode), `eval_batch_size`
  // samples at a time. Each batch is read on the calling thread, then its
  // rows are split across the execution pool, every thread running eval
  // passes of replica 0 on its own slice. The per-sample losses and hits
  // are summed on the calling thread in sample order, per batch, so the
  // result is bit-identical at any thread count.
  EvalResult Evaluate(const Dataset& dataset);

  // Replica `rank`'s network (e.g. for invariant checks).
  Network& replica(int rank);

  // Full durable-trainer state at the current commit point (epoch-boundary
  // view: the epoch-local accumulators are zero). What the durable
  // checkpoint cadence writes mid-epoch additionally carries the batch
  // cursor and running loss/accuracy sums.
  ckpt::TrainerState CaptureState() const;

  // Writes a durable checkpoint right now through the configured
  // CheckpointManager. FAILED_PRECONDITION when durable checkpointing is
  // disabled. Call between Train() invocations (epoch boundaries), not
  // mid-epoch.
  [[nodiscard]] Status SaveDurableNow();

  // Null when options().durable_checkpoint is disabled.
  ckpt::CheckpointManager* checkpoint_manager() const {
    return ckpt_manager_.get();
  }

  int num_gpus() const { return options_.num_gpus; }
  // Ranks still participating: options_.num_gpus minus any ranks dropped
  // by degrade-to-survivors.
  int live_gpus() const { return live_gpus_; }
  const TrainerOptions& options() const { return options_; }
  // Cumulative communication accounting since construction.
  const CommStats& total_comm() const { return total_comm_; }
  double virtual_seconds() const { return virtual_seconds_; }

 private:
  SyncTrainer(TrainerOptions options, std::vector<Network> replicas,
              std::unique_ptr<GradientAggregator> aggregator);

  // Runs one synchronous iteration on `batch`; on success adds the batch's
  // summed loss and correct count to the outputs. On failure nothing is
  // committed — replicas, the optimizer, residuals, the iteration counter,
  // and the epoch accumulators are all as they were before the call (the
  // aggregator contract plus commit-on-success ordering make the iteration
  // a transaction), so a failed step can be retried or rolled over.
  Status TrainIteration(const Batch& batch, double* loss_sum,
                        int64_t* correct);

  // Cuts `batch` down to a multiple of live_gpus_ so shards stay equal.
  void TrimBatch(Batch* batch) const;
  // Removes a crashed rank (and its residuals in the rollback snapshot)
  // and rebuilds the aggregator over the survivors (with the crash
  // stripped from the active fault plan).
  Status DropRank(int rank);
  // Drives recovery after TrainIteration failed with `failure` on `batch`:
  // degrade-to-survivors for rank crashes, rollback-and-replay from the
  // last snapshot otherwise; loops until the batch commits or the recovery
  // budget is exhausted.
  Status Recover(const Status& failure, const Batch& batch,
                 double* loss_sum, int64_t* correct, int64_t* samples);

  // Builds the CheckpointManager when durable checkpointing is enabled,
  // auto-wrapping the storage in a FaultInjectingStorage when the fault
  // plan carries storage verbs.
  Status SetUpDurableCheckpoint();
  // Fills `state` in place (reusing its capacity) with the full trainer
  // state including the in-flight epoch accumulators (`cursor` =
  // NextBatch calls consumed this epoch).
  void CaptureStateAt(double loss_sum, int64_t correct, int64_t samples,
                      int64_t cursor, ckpt::TrainerState* state) const;
  // Checks `state` against this trainer without writing anything: seed,
  // codec, rank count, parameter names and shapes, momentum and per-rank
  // residual sizes.
  Status ValidateState(const ckpt::TrainerState& state) const;
  // Installs a validated state's parameters (into every replica),
  // momentum (into the optimizer), per-rank residuals (with the elastic
  // remap described on Restore()) and iteration counter. Shared by
  // rollback and ApplyState.
  void InstallState(const ckpt::TrainerState& state);
  // Copies rank 0's parameters into ranks 1..live_gpus_-1, one rank per
  // pool task.
  void MirrorParams();
  // Restores a decoded checkpoint: InstallState plus the aggregator
  // section, the virtual clock, the epoch count, the learning rate for
  // that epoch and the mid-epoch resume markers. Fails without side
  // effects on any shape/seed/codec mismatch or an aggregator section the
  // engine refuses.
  Status ApplyState(const ckpt::TrainerState& state);
  // Post-commit hooks inside the epoch loop: durable save when the
  // cadence hits, then the fault plan's kill@ verb (so the checkpoint at
  // the kill iteration, if any, is already on disk when the process
  // "dies").
  Status AfterCommit(double loss_sum, int64_t correct, int64_t samples,
                     int64_t cursor);

  TrainerOptions options_;
  std::vector<Network> replicas_;
  std::vector<std::vector<ParamRef>> replica_params_;  // [rank][matrix]
  SgdMomentumOptimizer optimizer_;  // steps rank 0; see MirrorParams
  std::unique_ptr<GradientAggregator> aggregator_;
  // Error-feedback residuals: [rank][matrix] (empty when codec has none).
  std::vector<std::vector<std::vector<float>>> errors_;
  std::vector<bool> quantize_matrix_;  // policy decision per matrix

  // Per-iteration exchange scratch, refilled by TrainIteration: reusing
  // the vectors (and the nested per-slot vectors) keeps the steady-state
  // iteration free of heap allocations on the exchange path.
  std::vector<MatrixSlot> slots_;
  std::vector<double> rank_loss_;
  std::vector<int64_t> rank_correct_;
  // Per-thread-pool-slot profiler scratch for the forward/backward,
  // staging, and optimizer spans; folded serially at the iteration's
  // commit point (obs/span.h). Sized to execution.threads().
  std::vector<obs::PhaseTimes> slot_phases_;

  int64_t iteration_ = 0;
  int epochs_completed_ = 0;
  double virtual_seconds_ = 0.0;
  double wall_seconds_ = 0.0;
  CommStats total_comm_;

  // Fault-recovery state. live_gpus_ is the rank count every per-rank loop
  // uses; it starts at options_.num_gpus and drops when a crashed rank is
  // removed. active_plan_ is the not-yet-stripped fault plan the current
  // aggregator was built with.
  int live_gpus_ = 0;
  fault::FaultPlan active_plan_;
  // Durable checkpointing (null when disabled).
  std::unique_ptr<ckpt::CheckpointManager> ckpt_manager_;
  // Mid-epoch resume markers set by ApplyState and consumed by the first
  // epoch of the next Train() call: skip `resume_cursor_` NextBatch calls
  // and seed the epoch accumulators so the resumed epoch is bit-identical
  // to the uninterrupted one.
  bool pending_resume_ = false;
  int64_t resume_cursor_ = 0;
  double resume_loss_sum_ = 0.0;
  int64_t resume_correct_ = 0;
  int64_t resume_samples_ = 0;
  // Rollback snapshot, refilled every checkpoint_every committed steps;
  // valid only within the epoch that took it (it holds the epoch's
  // accumulators).
  ckpt::TrainerState recovery_;
  bool recovery_valid_ = false;
  // Batches committed since the last snapshot, replayed after a rollback.
  std::vector<Batch> replay_;
  int steps_since_snapshot_ = 0;
  int recoveries_used_ = 0;
};

}  // namespace lpsgd

#endif  // LPSGD_CORE_TRAINER_H_

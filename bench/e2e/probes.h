// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Measurement wrappers the end-to-end benchmark installs at the trainer's
// public seams, so nothing inside the library is instrumented:
//   - ProbedDataset stamps each training batch's first FillSample (the
//     step boundary) and, when traced, the end of its last fill;
//   - ProbedLayer (via ProbedFactory) times every top-level layer's
//     training Forward/Backward on every rank;
//   - TimedStorage times the durable-checkpoint writes and renames.
// A StepRecorder collects all of it into per-step samples.
#ifndef LPSGD_BENCH_E2E_PROBES_H_
#define LPSGD_BENCH_E2E_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/storage.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace lpsgd {
namespace e2e {

// Monotonic wall clock in nanoseconds.
int64_t NowNs();

// An AVX2 kernel in the library (simd_avx2::StoreF64AsF32, used by the MPI
// full-precision path) returns with the upper YMM halves dirty. Legacy-SSE
// code on that thread, such as the libm calls of the synthetic data
// generators and the weight initializers, then runs up to 10x slower until
// the next VZEROUPPER. Clearing the state before a set-up makes it cost
// what the set-up of a fresh process costs. No-op where AVX is absent.
void ClearUpperVectorState();

// One non-final training step: the interval from its batch's first
// FillSample to the next batch's. The four parts are filled only in traced
// runs and add up to `total_ns`:
//   fill = first fill .. last fill/label of the batch
//   pre  = last fill .. first training Layer::Forward on any rank
//   compute = first Forward .. last Backward on any rank
//   post = last Backward .. next batch's first fill
struct StepSample {
  int64_t total_ns = 0;
  int64_t fill_ns = 0;
  int64_t pre_ns = 0;
  int64_t compute_ns = 0;
  int64_t post_ns = 0;
  int64_t busy_sum_ns = 0;   // layer busy time summed over ranks
  int64_t busy_skew_ns = 0;  // max - min per-rank layer busy time
};

class StepRecorder {
 public:
  // `batch_size` is the global batch: every batch but an epoch's last
  // fetches exactly that many training samples, which is how a fill is
  // known to start a batch. Layer timing is recorded only when `traced`.
  StepRecorder(int64_t batch_size, int num_ranks, int num_layers,
               bool traced);
  StepRecorder(const StepRecorder&) = delete;
  StepRecorder& operator=(const StepRecorder&) = delete;

  // Drops everything recorded so far (the warm-up epoch's data).
  void Reset();
  // Bracket each timed Train(train, test, 1) call. The epoch's final step
  // is not kept: its interval would hold the evaluation.
  void BeginEpoch();
  void EndEpoch(int64_t end_ns);

  // Dataset seam.
  void BeforeTrainSample();
  void AfterTrainSample();
  void BeforeTestSample();

  // Layer seam: one training Forward or Backward of top-level layer
  // `layer` on replica `rank`. Ranks run concurrently; each rank's calls
  // come from one task at a time.
  void OnLayer(int rank, int layer, bool backward, int64_t start_ns,
               int64_t end_ns);

  const std::vector<StepSample>& steps() const { return steps_; }
  // Training batches fetched since Reset() (= committed steps).
  int64_t batches() const { return batches_; }
  // Wall time of each epoch's evaluation (first test fill .. Train end).
  const std::vector<int64_t>& eval_ns() const { return eval_ns_; }
  // Training forwards of layer 0 on rank 0; exceeds batches() by the
  // steps replayed after rollbacks.
  int64_t rank0_forwards() const { return rank0_forwards_; }
  // Busy time of `layer` summed over ranks since Reset().
  int64_t LayerNs(int layer, bool backward) const;

 private:
  void CloseStep(int64_t next_start_ns);

  const int64_t batch_size_;
  const int num_ranks_;
  const int num_layers_;
  const bool traced_;

  int64_t samples_ = 0;
  int64_t batches_ = 0;
  bool step_open_ = false;
  int64_t fill_start_ns_ = 0;
  int64_t fill_end_ns_ = 0;
  bool eval_started_ = false;
  int64_t eval_start_ns_ = 0;
  std::atomic<int64_t> first_forward_ns_;
  std::atomic<int64_t> last_backward_ns_;
  int64_t rank0_forwards_ = 0;
  std::vector<int64_t> step_busy_ns_;   // [rank], this step
  std::vector<int64_t> layer_busy_ns_;  // [(rank * layers + layer) * 2 + bwd]

  std::vector<StepSample> steps_;
  std::vector<int64_t> eval_ns_;
};

// Forwards to `inner` and reports each sample fetch to the recorder.
class ProbedDataset : public Dataset {
 public:
  ProbedDataset(const Dataset* inner, StepRecorder* recorder, bool train)
      : inner_(inner), recorder_(recorder), train_(train) {}

  int64_t NumSamples() const override { return inner_->NumSamples(); }
  int NumClasses() const override { return inner_->NumClasses(); }
  Shape SampleShape() const override { return inner_->SampleShape(); }
  void FillSample(int64_t index, float* out) const override;
  int LabelOf(int64_t index) const override;

 private:
  const Dataset* inner_;
  StepRecorder* recorder_;
  bool train_;
};

// A factory whose n-th network (the trainer builds rank 0 first) is
// `build(seed)` with every top-level layer wrapped to report its training
// Forward/Backward time to `recorder` as rank n. Parameters, names and
// numerics are the wrapped layers' own.
SyncTrainer::NetworkFactory ProbedFactory(Network (*build)(uint64_t),
                                          StepRecorder* recorder);

// Cumulative durable-checkpoint I/O seen by a TimedStorage.
struct StorageStats {
  int64_t saves = 0;  // CheckpointManager::Save calls
  int64_t bytes = 0;  // bytes written, checkpoint files and manifests
  int64_t write_ns = 0;
  int64_t rename_ns = 0;
};

// Forwards to `inner`, timing the synced writes and atomic renames.
// Not thread-safe; the checkpoint manager calls it from one thread.
class TimedStorage : public ckpt::Storage {
 public:
  explicit TimedStorage(std::shared_ptr<ckpt::Storage> inner)
      : inner_(std::move(inner)) {}

  Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  Status WriteFileSynced(const std::string& path,
                         const std::string& data) override;
  StatusOr<std::string> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  Status AtomicRename(const std::string& from,
                      const std::string& to) override;
  Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  StatusOr<std::vector<std::string>> List(const std::string& dir) override {
    return inner_->List(dir);
  }
  bool Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  // The manager announces every save's iteration before writing it.
  void SetFaultContext(int64_t iteration) override;

  const StorageStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StorageStats(); }

 private:
  std::shared_ptr<ckpt::Storage> inner_;
  StorageStats stats_;
};

}  // namespace e2e
}  // namespace lpsgd

#endif  // LPSGD_BENCH_E2E_PROBES_H_

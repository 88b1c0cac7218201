// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "probes.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "base/logging.h"
#include "nn/network.h"

namespace lpsgd {
namespace e2e {
namespace {

constexpr int64_t kUnset = std::numeric_limits<int64_t>::max();

void AtomicMin(std::atomic<int64_t>* target, int64_t value) {
  int64_t current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

// Delegates to top-level layer `index` of a shared network, timing the
// training-mode calls. Evaluation forwards (training == false) pass
// through untimed.
class ProbedLayer : public Layer {
 public:
  ProbedLayer(std::shared_ptr<Network> owner, int index, int rank,
              StepRecorder* recorder)
      : owner_(std::move(owner)),
        index_(index),
        rank_(rank),
        recorder_(recorder) {}

  std::string name() const override { return inner().name(); }

  Tensor Forward(const Tensor& input, bool training) override {
    if (!training) return inner().Forward(input, false);
    const int64_t start = NowNs();
    Tensor output = inner().Forward(input, true);
    recorder_->OnLayer(rank_, index_, /*backward=*/false, start, NowNs());
    return output;
  }

  Tensor Backward(const Tensor& output_grad) override {
    const int64_t start = NowNs();
    Tensor input_grad = inner().Backward(output_grad);
    recorder_->OnLayer(rank_, index_, /*backward=*/true, start, NowNs());
    return input_grad;
  }

  void CollectParams(std::vector<ParamRef>* params) override {
    inner().CollectParams(params);
  }

  Shape OutputShape(const Shape& input_shape) const override {
    return inner().OutputShape(input_shape);
  }

 private:
  Layer& inner() const { return owner_->layer(index_); }

  std::shared_ptr<Network> owner_;
  int index_;
  int rank_;
  StepRecorder* recorder_;
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx"))) void Vzeroupper() {
  __builtin_ia32_vzeroupper();
}
#endif

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ClearUpperVectorState() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx")) Vzeroupper();
#endif
}

StepRecorder::StepRecorder(int64_t batch_size, int num_ranks,
                           int num_layers, bool traced)
    : batch_size_(batch_size),
      num_ranks_(num_ranks),
      num_layers_(num_layers),
      traced_(traced),
      first_forward_ns_(kUnset),
      last_backward_ns_(0),
      step_busy_ns_(static_cast<size_t>(num_ranks), 0),
      layer_busy_ns_(static_cast<size_t>(num_ranks * num_layers * 2), 0) {
  CHECK_GT(batch_size, 0);
}

void StepRecorder::Reset() {
  samples_ = 0;
  batches_ = 0;
  step_open_ = false;
  eval_started_ = false;
  rank0_forwards_ = 0;
  first_forward_ns_.store(kUnset, std::memory_order_relaxed);
  last_backward_ns_.store(0, std::memory_order_relaxed);
  std::fill(step_busy_ns_.begin(), step_busy_ns_.end(), 0);
  std::fill(layer_busy_ns_.begin(), layer_busy_ns_.end(), 0);
  steps_.clear();
  eval_ns_.clear();
}

void StepRecorder::BeginEpoch() {
  step_open_ = false;
  eval_started_ = false;
}

void StepRecorder::EndEpoch(int64_t end_ns) {
  if (eval_started_) eval_ns_.push_back(end_ns - eval_start_ns_);
  step_open_ = false;
  eval_started_ = false;
}

void StepRecorder::BeforeTrainSample() {
  if (samples_++ % batch_size_ != 0) return;
  const int64_t now = NowNs();
  if (step_open_) CloseStep(now);
  ++batches_;
  step_open_ = true;
  fill_start_ns_ = now;
  fill_end_ns_ = now;
  first_forward_ns_.store(kUnset, std::memory_order_relaxed);
  last_backward_ns_.store(0, std::memory_order_relaxed);
  std::fill(step_busy_ns_.begin(), step_busy_ns_.end(), 0);
}

void StepRecorder::AfterTrainSample() {
  if (traced_) fill_end_ns_ = NowNs();
}

void StepRecorder::BeforeTestSample() {
  if (eval_started_) return;
  eval_started_ = true;
  eval_start_ns_ = NowNs();
}

void StepRecorder::OnLayer(int rank, int layer, bool backward,
                           int64_t start_ns, int64_t end_ns) {
  if (!traced_) return;
  const int64_t busy = end_ns - start_ns;
  step_busy_ns_[static_cast<size_t>(rank)] += busy;
  layer_busy_ns_[static_cast<size_t>((rank * num_layers_ + layer) * 2 +
                                     (backward ? 1 : 0))] += busy;
  // Layer 0 runs first in Forward and last in Backward.
  if (layer != 0) return;
  if (backward) {
    AtomicMax(&last_backward_ns_, end_ns);
  } else {
    AtomicMin(&first_forward_ns_, start_ns);
    if (rank == 0) ++rank0_forwards_;
  }
}

int64_t StepRecorder::LayerNs(int layer, bool backward) const {
  int64_t total = 0;
  for (int rank = 0; rank < num_ranks_; ++rank) {
    total += layer_busy_ns_[static_cast<size_t>(
        (rank * num_layers_ + layer) * 2 + (backward ? 1 : 0))];
  }
  return total;
}

void StepRecorder::CloseStep(int64_t next_start_ns) {
  StepSample step;
  step.total_ns = next_start_ns - fill_start_ns_;
  if (traced_) {
    const int64_t first = first_forward_ns_.load(std::memory_order_relaxed);
    const int64_t last = last_backward_ns_.load(std::memory_order_relaxed);
    CHECK(first != kUnset && last >= first)
        << "traced step without a training forward/backward";
    step.fill_ns = fill_end_ns_ - fill_start_ns_;
    step.pre_ns = first - fill_end_ns_;
    step.compute_ns = last - first;
    step.post_ns = next_start_ns - last;
    const auto [lo, hi] =
        std::minmax_element(step_busy_ns_.begin(), step_busy_ns_.end());
    step.busy_skew_ns = *hi - *lo;
    for (int64_t busy : step_busy_ns_) step.busy_sum_ns += busy;
  }
  steps_.push_back(step);
}

void ProbedDataset::FillSample(int64_t index, float* out) const {
  if (train_) {
    recorder_->BeforeTrainSample();
  } else {
    recorder_->BeforeTestSample();
  }
  inner_->FillSample(index, out);
  if (train_) recorder_->AfterTrainSample();
}

int ProbedDataset::LabelOf(int64_t index) const {
  const int label = inner_->LabelOf(index);
  if (train_) recorder_->AfterTrainSample();
  return label;
}

SyncTrainer::NetworkFactory ProbedFactory(Network (*build)(uint64_t),
                                          StepRecorder* recorder) {
  auto next_rank = std::make_shared<int>(0);
  return [build, recorder, next_rank](uint64_t seed) {
    auto owner = std::make_shared<Network>(build(seed));
    const int rank = (*next_rank)++;
    Network probed;
    for (int i = 0; i < owner->num_layers(); ++i) {
      probed.Add(std::make_unique<ProbedLayer>(owner, i, rank, recorder));
    }
    return probed;
  };
}

Status TimedStorage::WriteFileSynced(const std::string& path,
                                     const std::string& data) {
  const int64_t start = NowNs();
  Status status = inner_->WriteFileSynced(path, data);
  stats_.write_ns += NowNs() - start;
  stats_.bytes += static_cast<int64_t>(data.size());
  return status;
}

Status TimedStorage::AtomicRename(const std::string& from,
                                  const std::string& to) {
  const int64_t start = NowNs();
  Status status = inner_->AtomicRename(from, to);
  stats_.rename_ns += NowNs() - start;
  return status;
}

void TimedStorage::SetFaultContext(int64_t iteration) {
  ++stats_.saves;
  inner_->SetFaultContext(iteration);
}

}  // namespace e2e
}  // namespace lpsgd

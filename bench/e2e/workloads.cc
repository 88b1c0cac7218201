// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "workloads.h"

#include <algorithm>
#include <set>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "nn/model_zoo.h"
#include "quant/codec.h"

namespace lpsgd {
namespace e2e {
namespace {

// Test splits draw from a disjoint range of the same sample streams.
constexpr uint64_t kTestOffset = uint64_t{1} << 20;

// Iterations the fault_recovery plan covers. With one rollback per ~100
// iterations this stays under the trainer's max_recoveries budget of 64;
// at ~15 ms per step it lasts a run of about 60 timed seconds, after which
// the remaining steps run fault-free.
constexpr int64_t kFaultHorizon = 4096;

// Holds every sample of a generated dataset in memory, so fetching a batch
// is a copy. The synthetic generators spend ~35 ns of libm work per
// element (Box-Muller), and that code runs up to 10x slower whenever an
// earlier AVX2 kernel on the same thread left the upper YMM halves dirty
// (see ClearUpperVectorState), which makes a step that generates its batch
// bimodal from run to run. Materializing moves generation into set-up,
// where it is timed as dataset construction.
class MaterializedDataset : public Dataset {
 public:
  explicit MaterializedDataset(const Dataset& source)
      : num_classes_(source.NumClasses()),
        sample_shape_(source.SampleShape()),
        stride_(source.SampleShape().element_count()),
        samples_(static_cast<size_t>(source.NumSamples() * stride_)),
        labels_(static_cast<size_t>(source.NumSamples())) {
    for (int64_t i = 0; i < source.NumSamples(); ++i) {
      source.FillSample(i, samples_.data() + i * stride_);
      labels_[static_cast<size_t>(i)] = source.LabelOf(i);
    }
  }

  int64_t NumSamples() const override {
    return static_cast<int64_t>(labels_.size());
  }
  int NumClasses() const override { return num_classes_; }
  Shape SampleShape() const override { return sample_shape_; }
  void FillSample(int64_t index, float* out) const override {
    const float* sample = samples_.data() + index * stride_;
    std::copy(sample, sample + stride_, out);
  }
  int LabelOf(int64_t index) const override {
    return labels_[static_cast<size_t>(index)];
  }

 private:
  int num_classes_;
  Shape sample_shape_;
  int64_t stride_;
  std::vector<float> samples_;
  std::vector<int> labels_;
};

template <typename Generated, typename Options>
DataPair Materialize(Options options, int64_t train, int64_t test) {
  DataPair data;
  options.num_samples = train;
  data.train = std::make_unique<MaterializedDataset>(Generated(options));
  options.num_samples = test;
  options.sample_offset = kTestOffset;
  data.test = std::make_unique<MaterializedDataset>(Generated(options));
  return data;
}

// `samples` shrunk by `scale` to whole batches, at least two so that every
// epoch has a non-final step.
int64_t Scaled(int64_t samples, double scale, int64_t batch) {
  const int64_t scaled = static_cast<int64_t>(static_cast<double>(samples) *
                                              scale);
  return std::max(2 * batch, scaled / batch * batch);
}

DataPair Images(uint64_t seed, double scale, int channels, int size,
                int64_t train, int64_t test, int64_t batch) {
  SyntheticImageOptions options;
  options.num_classes = 10;
  options.channels = channels;
  options.height = size;
  options.width = size;
  options.signal = 1.2f;
  options.noise = 0.8f;
  options.seed = seed;
  return Materialize<SyntheticImageDataset>(
      options, Scaled(train, scale, batch), Scaled(test, scale, batch));
}

GemmShape DenseGemm(std::string name, int64_t batch, int64_t in,
                    int64_t out) {
  // DenseLayer / LstmLayer: y = x W^T, dW += dy^T x, dx = dy W.
  return {std::move(name),
          {false, true, batch, in, out},
          {true, false, out, batch, in},
          {false, false, batch, out, in}};
}

GemmShape ConvGemm(std::string name, int64_t out_channels, int64_t patch,
                   int64_t plane) {
  // Conv2dLayer, per sample over im2col patches {plane x patch}:
  // out = W patches^T, dW += dout patches, dpatches = dout^T W.
  return {std::move(name),
          {false, true, out_channels, patch, plane},
          {false, false, out_channels, plane, patch},
          {true, false, plane, out_channels, patch}};
}

TrainerOptions BaseOptions(uint64_t seed, int64_t batch, const char* codec,
                           CommPrimitive primitive, float lr) {
  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = batch;
  options.learning_rate = lr;
  StatusOr<CodecSpec> spec = CodecSpec::Parse(codec);
  CHECK_OK(spec.status());
  options.codec = *spec;
  options.primitive = primitive;
  options.seed = seed;
  return options;
}

// One transient failure in every block of 16 iterations (absorbed by a
// single retry) and one triple corruption in every block of 100 (outlasts
// the retry, so the trainer rolls back to its last snapshot and replays).
fault::FaultPlan SeededFaultPlan(uint64_t seed) {
  Rng rng(HashCounter(seed, 0xfa17));
  fault::FaultPlan plan;
  plan.seed = seed;
  std::set<int64_t> fails;
  for (int64_t block = 0; block < kFaultHorizon / 16; ++block) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kTransientFail;
    event.iteration = block * 16 + static_cast<int64_t>(rng.NextUint64(16));
    fails.insert(event.iteration);
    plan.events.push_back(event);
  }
  for (int64_t block = 0; block < kFaultHorizon / 100; ++block) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kCorruptWire;
    event.count = 3;
    event.iteration = block * 100 + static_cast<int64_t>(rng.NextUint64(100));
    if (fails.count(event.iteration) > 0) ++event.iteration;
    plan.events.push_back(event);
  }
  return plan;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "conv_compute";
    // Conv2d + BatchNorm forward/backward is the whole step and the
    // exchange under 1%: compute-path changes move it, codec and comm
    // changes must not.
    w.epochs = 7;
    w.min_test_accuracy = 0.5;
    w.gemms = {ConvGemm("block_conv", 16, 16 * 9, 16 * 16),
               ConvGemm("stem", 16, 3 * 9, 16 * 16)};
    w.make_data = [](uint64_t seed, double scale) {
      return Images(seed, scale, 3, 16, 1024, 128, 64);
    };
    w.build = [](uint64_t seed) {
      return BuildMiniResNet(3, 16, 2, 16, 10, seed);
    };
    w.options = [](uint64_t seed) {
      return BaseOptions(seed, 64, "q4", CommPrimitive::kMpi, 0.05f);
    };
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "fc_exchange";
    // The paper's communication-heavy fully-connected regime: 1.3M
    // parameters at 4 samples per rank, so QSGD-4 encode/decode, the MPI
    // exchange and the optimizer are about half the step, and the working
    // set is far above L2.
    w.epochs = 12;
    w.min_test_accuracy = 0.5;
    w.gemms = {DenseGemm("fc1", 4, 1024, 1024), DenseGemm("fc0", 4, 256, 1024)};
    w.make_data = [](uint64_t seed, double scale) {
      return Images(seed, scale, 1, 16, 256, 64, 16);
    };
    w.build = [](uint64_t seed) { return BuildMlp({256, 1024, 1024, 10}, seed); };
    w.options = [](uint64_t seed) {
      return BaseOptions(seed, 16, "q4", CommPrimitive::kMpi, 0.01f);
    };
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "lstm_sparse_nccl";
    // Many small per-timestep Gemms instead of a few large ones, and the
    // NCCL sparse allgather + scatter-add with the Top-K encode instead of
    // MPI dense quantization.
    w.epochs = 40;
    w.min_test_accuracy = 0.5;
    w.gemms = {DenseGemm("lstm_hidden", 8, 64, 256),
               DenseGemm("lstm0_input", 8, 32, 256)};
    w.make_data = [](uint64_t seed, double scale) {
      SyntheticSequenceOptions options;
      options.num_classes = 8;
      options.time_steps = 20;
      options.frame_dim = 32;
      options.noise = 1.0f;
      options.seed = seed;
      return Materialize<SyntheticSequenceDataset>(
          options, Scaled(256, scale, 32), Scaled(64, scale, 32));
    };
    w.build = [](uint64_t seed) {
      return BuildDeepLstmClassifier(32, 64, 2, 8, seed);
    };
    w.options = [](uint64_t seed) {
      return BaseOptions(seed, 32, "topk:0.25", CommPrimitive::kNccl, 0.1f);
    };
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "fault_recovery";
    // State writes beside the training reads: error-feedback residuals,
    // seeded exchange failures with rollback and replay, a recovery
    // snapshot every 4 steps and a durable save every 16, so a clean-step
    // gain that slows recovery or state capture shows here.
    w.epochs = 32;
    w.min_test_accuracy = 0.5;
    w.gemms = {ConvGemm("conv2", 16, 8 * 9, 16 * 16),
               ConvGemm("conv1", 8, 3 * 9, 32 * 32)};
    w.make_data = [](uint64_t seed, double scale) {
      return Images(seed, scale, 3, 32, 512, 128, 32);
    };
    w.build = [](uint64_t seed) { return BuildMiniAlexNet(3, 32, 10, seed); };
    w.options = [](uint64_t seed) {
      TrainerOptions options =
          BaseOptions(seed, 32, "ecq4", CommPrimitive::kMpi, 0.02f);
      options.fault_tolerance.plan = SeededFaultPlan(seed);
      options.fault_tolerance.retry.max_retries = 1;
      options.fault_tolerance.checkpoint_every = 4;
      options.fault_tolerance.max_recoveries = 64;
      options.durable_checkpoint.save_every = 16;
      return options;
    };
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>& workloads =
      *new std::vector<Workload>(MakeWorkloads());
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace e2e
}  // namespace lpsgd

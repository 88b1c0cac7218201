// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Ablation (DESIGN.md): QSGD scaling factor. Section 3.2.2: normalizing
// by the 2-norm yields sparse quantized vectors; normalizing by the max
// element introduces smaller variance and gave the paper better accuracy.
// This bench measures both effects directly on random gradients, plus the
// end accuracy on the synthetic task.
#include <cmath>
#include <iostream>

#include "base/rng.h"
#include "base/strings.h"
#include "base/table_printer.h"
#include "bench/bench_util.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "quant/workspace.h"
#include "tensor/tensor.h"
#include "base/logging.h"

namespace lpsgd {
namespace {

struct NormStats {
  double mse = 0.0;
  double sparsity = 0.0;  // fraction of exact zeros after quantization
};

NormStats MeasureNorm(QsgdNorm norm, int bits) {
  CodecWorkspace workspace;
  CodecSpec spec;
  spec.kind = CodecKind::kQsgd;
  spec.bits = bits;
  spec.bucket_size = 512;
  spec.norm = norm;
  auto codec = spec.Create();
  CHECK_OK(codec.status());

  const Shape shape({4096});
  Tensor grad(shape);
  Rng rng(9);
  grad.FillGaussian(&rng, 1.0f);

  NormStats stats;
  std::vector<uint8_t> blob;
  std::vector<float> decoded(4096);
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    (*codec)->Encode(grad.data(), shape, static_cast<uint64_t>(t), nullptr,
                     &workspace, &blob);
    CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                     &workspace, decoded.data()));
    for (int64_t i = 0; i < 4096; ++i) {
      const double d = decoded[static_cast<size_t>(i)] - grad.at(i);
      stats.mse += d * d;
      if (decoded[static_cast<size_t>(i)] == 0.0f) stats.sparsity += 1.0;
    }
  }
  stats.mse /= trials * 4096.0;
  stats.sparsity /= trials * 4096.0;
  return stats;
}

double TrainWith(QsgdNorm norm) {
  SyntheticImageOptions train_options;
  train_options.num_classes = 8;
  train_options.channels = 1;
  train_options.height = 6;
  train_options.width = 6;
  train_options.num_samples = 448;
  train_options.noise = 1.4f;
  SyntheticImageOptions test_options = train_options;
  test_options.num_samples = 224;
  test_options.sample_offset = 1 << 20;
  const SyntheticImageDataset train(train_options);
  const SyntheticImageDataset test(test_options);

  TrainerOptions options;
  options.num_gpus = 4;
  options.global_batch_size = 32;
  options.learning_rate = 0.06f;
  options.codec.kind = CodecKind::kQsgd;
  options.codec.bits = 2;
  options.codec.bucket_size = 128;
  options.codec.norm = norm;
  options.seed = 6;
  auto trainer = SyncTrainer::Create(
      [](uint64_t seed) { return BuildMlp({36, 24, 8}, seed); }, options);
  CHECK_OK(trainer.status());
  auto metrics = (*trainer)->Train(train, test, 10);
  CHECK_OK(metrics.status());
  return metrics->back().test_accuracy;
}

}  // namespace
}  // namespace lpsgd

int main(int argc, char** argv) {
  lpsgd::bench::BenchRun bench_run(&argc, argv, "bench_ablation_scaling_norm");
  using namespace lpsgd;  // NOLINT(build/namespaces)
  bench::PrintHeader("Ablation: QSGD scaling norm (L2 vs max element)",
                     "Variance, sparsity, and end accuracy per norm.");
  TablePrinter table({"Norm", "Bits", "Quantization MSE",
                      "Sparsity (% zeros)", "2-bit test accuracy (%)"});
  for (int bits : {2, 4}) {
    const NormStats l2 = MeasureNorm(QsgdNorm::kL2, bits);
    const NormStats mx = MeasureNorm(QsgdNorm::kMax, bits);
    table.AddRow({"L2", StrCat(bits), FormatDouble(l2.mse, 5),
                  FormatDouble(l2.sparsity * 100.0, 1),
                  bits == 2 ? FormatDouble(TrainWith(QsgdNorm::kL2) * 100.0, 1)
                            : "-"});
    table.AddRow({"max", StrCat(bits), FormatDouble(mx.mse, 5),
                  FormatDouble(mx.sparsity * 100.0, 1),
                  bits == 2 ? FormatDouble(TrainWith(QsgdNorm::kMax) * 100.0, 1)
                            : "-"});
  }
  table.Print(std::cout);
  std::cout << "Paper shape: max-norm has lower variance (better "
               "accuracy); L2-norm yields sparser vectors (Section "
               "3.2.2).\n";
  return 0;
}

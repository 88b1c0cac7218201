// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Domain example: pick a gradient-compression setting for an image
// classifier. Trains the AlexNet-style conv net under several codecs on
// the same data and prints the accuracy/communication trade-off — the
// decision the paper's study informs (Section 5.4: "8bit QSGD ... may be
// a good entry-level compressor").
//
//   ./image_classification
#include <iostream>

#include "base/strings.h"
#include "base/table_printer.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "quant/codec.h"

int main() {
  using namespace lpsgd;  // NOLINT(build/namespaces)

  SyntheticImageOptions data_options;
  data_options.num_classes = 10;
  data_options.channels = 1;
  data_options.height = 8;
  data_options.width = 8;
  data_options.num_samples = 512;
  data_options.signal = 1.2f;
  data_options.noise = 0.8f;
  SyntheticImageDataset train(data_options);
  data_options.num_samples = 256;
  data_options.sample_offset = 1 << 20;
  SyntheticImageDataset test(data_options);

  TrainerOptions base;
  base.num_gpus = 4;
  base.global_batch_size = 32;
  base.learning_rate = 0.05f;
  base.lr_schedule = {{14, 0.01f}};

  const std::vector<AccuracyRunConfig> configs = {
      {"32bit", FullPrecisionSpec(), {}},
      {"QSGD 8bit", QsgdSpec(8), {}},
      {"QSGD 4bit", QsgdSpec(4), {}},
      {"QSGD 2bit", QsgdSpec(2), {}},
      {"1bitSGD* (d=8)", OneBitSgdReshapedSpec(8), {}},
  };

  auto factory = [](uint64_t seed) {
    return BuildMiniAlexNet(/*in_channels=*/1, /*image_size=*/8,
                            /*num_classes=*/10, seed);
  };
  auto series = RunAccuracyComparison(factory, base, train, test, configs,
                                      /*epochs=*/20);
  if (!series.ok()) {
    std::cerr << series.status() << "\n";
    return 1;
  }

  std::cout << FormatAccuracyTable(*series, /*print_every=*/4) << "\n";

  // Wire cost per configuration (bytes per parameter per exchange).
  TablePrinter table({"Codec", "Final accuracy", "Wire bytes/param",
                      "Verdict"});
  Network probe = factory(0);
  for (size_t i = 0; i < configs.size(); ++i) {
    auto codec = configs[i].codec.Create();
    if (!codec.ok()) continue;
    int64_t bytes = 0, params = 0;
    for (const ParamRef& p : probe.Params()) {
      bytes += (*codec)->EncodedSizeBytes(p.quant_shape);
      params += p.value->size();
    }
    const double final_accuracy = (*series)[i].FinalTestAccuracy();
    const double fp_accuracy = (*series)[0].FinalTestAccuracy();
    const char* verdict =
        final_accuracy >= fp_accuracy - 0.02
            ? "matches full precision"
            : (final_accuracy >= fp_accuracy - 0.10 ? "small loss"
                                                    : "accuracy loss");
    table.AddRow({configs[i].label,
                  StrCat(FormatDouble(final_accuracy * 100.0, 1), "%"),
                  FormatDouble(static_cast<double>(bytes) / params, 3),
                  verdict});
  }
  table.Print(std::cout);
  return 0;
}

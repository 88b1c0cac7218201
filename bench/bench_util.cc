// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "bench/bench_util.h"

#include <algorithm>
#include <iostream>
#include <string_view>

#include "base/logging.h"
#include "base/simd/simd.h"
#include "base/strings.h"
#include "base/table_printer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/span.h"

namespace lpsgd {
namespace bench {

BenchRun::BenchRun(int* argc, char** argv, const std::string& binary_name)
    : obs_out_(binary_name) {
  CHECK(argc != nullptr);
  // Strip our flags in place so downstream parsers (Google Benchmark)
  // never see them.
  std::string obs_list;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kMetricsFlag = "--metrics_out=";
    constexpr std::string_view kObsFlag = "--obs=";
    constexpr std::string_view kObsOutFlag = "--obs_out=";
    if (arg.rfind(kMetricsFlag, 0) == 0) {
      metrics_path_ = std::string(arg.substr(kMetricsFlag.size()));
    } else if (arg.rfind(kObsFlag, 0) == 0) {
      obs_list = std::string(arg.substr(kObsFlag.size()));
    } else if (arg.rfind(kObsOutFlag, 0) == 0) {
      obs_out_ = std::string(arg.substr(kObsOutFlag.size()));
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;

  obs::RunReport::Global().set_binary(binary_name);
  // Which kernel table the codecs dispatched to — run reports comparing
  // scalar and SIMD numbers need it to tell the legs apart.
  obs::RunReport::Global().SetMeta("simd_isa",
                                   SimdIsaName(ActiveSimdIsa()));
  obs::EnableFromFlags(obs_list, obs_out_);
  switched_ = obs::Exporters();
  if (!metrics_path_.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
    obs::RunReport::Global().set_enabled(true);
  }
}

BenchRun::~BenchRun() {
  if (!metrics_path_.empty()) {
    const Status status = obs::RunReport::Global().WriteFile(
        metrics_path_, &obs::MetricsRegistry::Global());
    if (!status.ok()) {
      LOG(Error) << "failed to write --metrics_out=" << metrics_path_ << ": "
                 << status;
    } else {
      std::cout << "\nwrote run report to " << metrics_path_ << "\n";
    }
  }
  std::vector<std::string> written;
  const Status status = obs::WriteOutputs(obs_out_, switched_, &written);
  if (!status.ok()) LOG(Error) << "failed to write --obs_out: " << status;
  for (const std::string& path : written) {
    std::cout << "wrote " << path << "\n";
  }
}

namespace {

using Table = std::map<PaperRowKey, std::map<int, double>>;

// Figure 10 of the paper: samples/sec with MPI on EC2 P2 instances.
Table MakeFigure10() {
  Table t;
  auto add = [&t](const char* net, const char* prec,
                  std::map<int, double> row) {
    t[PaperRowKey{net, prec}] = std::move(row);
  };
  // AlexNet / ImageNet.
  add("AlexNet", "32bit",
      {{1, 240.80}, {2, 301.45}, {4, 328.00}, {8, 272.90}, {16, 192.10}});
  add("AlexNet", "Q16", {{2, 388.80}, {4, 508.80}, {8, 500.90}, {16, 335.60}});
  add("AlexNet", "Q8", {{2, 424.90}, {4, 544.60}, {8, 739.10}, {16, 535.00}});
  add("AlexNet", "Q4", {{2, 466.50}, {4, 598.70}, {8, 964.90}, {16, 748.50}});
  add("AlexNet", "Q2",
      {{2, 449.20}, {4, 609.15}, {8, 1076.50}, {16, 889.80}});
  add("AlexNet", "1b", {{2, 424.05}, {4, 564.30}, {8, 971.10}, {16, 849.40}});
  add("AlexNet", "1b*", {{2, 370.80}, {4, 476.50}, {8, 761.20}, {16, 712.70}});
  // ResNet50 / ImageNet.
  add("ResNet50", "32bit",
      {{1, 47.20}, {2, 80.80}, {4, 142.40}, {8, 247.90}, {16, 272.30}});
  add("ResNet50", "Q16", {{2, 90.20}, {4, 156.30}, {8, 275.80}, {16, 348.70}});
  add("ResNet50", "Q8", {{2, 92.60}, {4, 162.70}, {8, 313.70}, {16, 416.80}});
  add("ResNet50", "Q4", {{2, 93.90}, {4, 165.70}, {8, 326.10}, {16, 461.20}});
  add("ResNet50", "Q2", {{2, 93.30}, {4, 178.35}, {8, 330.45}, {16, 472.25}});
  add("ResNet50", "1b", {{2, 45.10}, {4, 81.70}, {8, 160.15}, {16, 155.20}});
  add("ResNet50", "1b*", {{2, 88.10}, {4, 156.50}, {8, 296.70}, {16, 442.40}});
  // ResNet110 / CIFAR-10.
  add("ResNet110", "32bit",
      {{1, 343.70}, {2, 555.00}, {4, 957.70}, {8, 1229.10}, {16, 831.60}});
  add("ResNet110", "Q16",
      {{2, 551.00}, {4, 942.70}, {8, 1164.20}, {16, 763.40}});
  add("ResNet110", "Q8",
      {{2, 550.20}, {4, 960.10}, {8, 1193.10}, {16, 759.70}});
  add("ResNet110", "Q4",
      {{2, 571.10}, {4, 957.40}, {8, 1257.10}, {16, 784.30}});
  add("ResNet110", "Q2",
      {{2, 557.20}, {4, 973.10}, {8, 1227.90}, {16, 780.40}});
  add("ResNet110", "1b",
      {{2, 465.60}, {4, 643.30}, {8, 610.90}, {16, 406.90}});
  add("ResNet110", "1b*",
      {{2, 550.40}, {4, 884.80}, {8, 1156.70}, {16, 757.70}});
  // ResNet152 / ImageNet.
  add("ResNet152", "32bit",
      {{1, 16.90}, {2, 26.10}, {4, 45.00}, {8, 73.90}, {16, 113.50}});
  add("ResNet152", "Q16", {{2, 31.20}, {4, 54.50}, {8, 95.50}, {16, 151.00}});
  add("ResNet152", "Q8", {{2, 32.80}, {4, 62.70}, {8, 109.20}, {16, 182.50}});
  add("ResNet152", "Q4", {{2, 33.60}, {4, 60.20}, {8, 121.90}, {16, 203.20}});
  add("ResNet152", "Q2", {{2, 33.50}, {4, 64.35}, {8, 123.55}, {16, 208.50}});
  add("ResNet152", "1b", {{2, 10.55}, {4, 22.10}, {8, 41.40}, {16, 63.15}});
  add("ResNet152", "1b*", {{2, 30.40}, {4, 55.50}, {8, 108.10}, {16, 193.50}});
  // VGG19 / ImageNet.
  add("VGG19", "32bit",
      {{1, 12.40}, {2, 20.40}, {4, 36.30}, {8, 53.95}, {16, 40.60}});
  add("VGG19", "Q16", {{2, 24.80}, {4, 46.40}, {8, 35.80}, {16, 67.80}});
  add("VGG19", "Q8", {{2, 24.20}, {4, 47.50}, {8, 119.50}, {16, 106.60}});
  add("VGG19", "Q4", {{2, 27.00}, {4, 52.30}, {8, 151.65}, {16, 143.80}});
  add("VGG19", "Q2", {{2, 24.60}, {4, 49.35}, {8, 160.35}, {16, 170.50}});
  add("VGG19", "1b", {{2, 22.20}, {4, 43.15}, {8, 117.35}, {16, 120.60}});
  add("VGG19", "1b*", {{2, 22.90}, {4, 44.80}, {8, 99.15}, {16, 134.30}});
  // BN-Inception / ImageNet.
  add("BN-Inception", "32bit",
      {{1, 88.30}, {2, 164.80}, {4, 316.75}, {8, 473.75}, {16, 500.40}});
  add("BN-Inception", "Q16",
      {{2, 171.80}, {4, 337.10}, {8, 482.70}, {16, 592.30}});
  add("BN-Inception", "Q8",
      {{2, 173.60}, {4, 342.50}, {8, 552.90}, {16, 696.30}});
  add("BN-Inception", "Q4",
      {{2, 174.80}, {4, 346.90}, {8, 593.40}, {16, 743.30}});
  add("BN-Inception", "Q2",
      {{2, 173.40}, {4, 343.70}, {8, 591.80}, {16, 747.50}});
  add("BN-Inception", "1b",
      {{2, 127.60}, {4, 236.25}, {8, 336.15}, {16, 321.30}});
  add("BN-Inception", "1b*",
      {{2, 170.30}, {4, 335.10}, {8, 480.50}, {16, 700.40}});
  return t;
}

// Figure 11 of the paper: samples/sec with NCCL on EC2 P2 instances.
Table MakeFigure11() {
  Table t;
  auto add = [&t](const char* net, const char* prec,
                  std::map<int, double> row) {
    t[PaperRowKey{net, prec}] = std::move(row);
  };
  add("AlexNet", "32bit",
      {{1, 240.80}, {2, 458.20}, {4, 625.00}, {8, 1138.30}});
  add("AlexNet", "Q16", {{2, 462.80}, {4, 632.10}, {8, 1157.60}});
  add("AlexNet", "Q8", {{2, 458.40}, {4, 641.80}, {8, 1214.80}});
  add("AlexNet", "Q4", {{2, 471.90}, {4, 659.40}, {8, 1247.70}});
  add("AlexNet", "Q2", {{2, 471.00}, {4, 661.60}, {8, 1229.70}});
  add("ResNet50", "32bit",
      {{1, 47.20}, {2, 93.80}, {4, 164.80}, {8, 291.10}});
  add("ResNet50", "Q16", {{2, 93.70}, {4, 164.50}, {8, 324.20}});
  add("ResNet50", "Q8", {{2, 94.00}, {4, 165.80}, {8, 297.40}});
  add("ResNet50", "Q4", {{2, 95.60}, {4, 167.90}, {8, 298.40}});
  add("ResNet50", "Q2", {{2, 95.50}, {4, 168.20}, {8, 304.10}});
  add("ResNet152", "32bit",
      {{1, 16.90}, {2, 33.60}, {4, 60.10}, {8, 112.10}});
  add("ResNet152", "Q16", {{2, 33.40}, {4, 59.80}, {8, 112.20}});
  add("ResNet152", "Q8", {{2, 33.70}, {4, 60.80}, {8, 115.10}});
  add("ResNet152", "Q4", {{2, 34.20}, {4, 62.10}, {8, 118.70}});
  add("ResNet152", "Q2", {{2, 34.30}, {4, 62.20}, {8, 119.90}});
  add("VGG19", "32bit", {{1, 12.40}, {2, 24.90}, {4, 48.70}, {8, 163.10}});
  add("VGG19", "Q16", {{2, 24.90}, {4, 49.10}, {8, 168.00}});
  add("VGG19", "Q8", {{2, 25.50}, {4, 50.50}, {8, 175.20}});
  add("VGG19", "Q4", {{2, 25.60}, {4, 51.00}, {8, 179.50}});
  add("VGG19", "Q2", {{2, 25.60}, {4, 51.10}, {8, 177.80}});
  add("BN-Inception", "32bit",
      {{1, 88.30}, {2, 175.30}, {4, 342.00}, {8, 486.70}});
  add("BN-Inception", "Q16", {{2, 174.30}, {4, 342.70}, {8, 497.10}});
  add("BN-Inception", "Q8", {{2, 174.50}, {4, 345.30}, {8, 510.10}});
  add("BN-Inception", "Q4", {{2, 178.60}, {4, 349.00}, {8, 598.90}});
  add("BN-Inception", "Q2", {{2, 177.20}, {4, 349.00}, {8, 608.20}});
  return t;
}

}  // namespace

const Table& PaperFigure10() {
  static const Table& kTable = *new Table(MakeFigure10());
  return kTable;
}

const Table& PaperFigure11() {
  static const Table& kTable = *new Table(MakeFigure11());
  return kTable;
}

std::optional<double> PaperValue(const Table& table,
                                 const std::string& network,
                                 const std::string& precision, int gpus) {
  auto row = table.find(PaperRowKey{network, precision});
  if (row == table.end()) return std::nullopt;
  auto cell = row->second.find(gpus);
  if (cell == row->second.end()) return std::nullopt;
  return cell->second;
}

std::vector<CodecSpec> MpiFigureCodecs() {
  return {FullPrecisionSpec(), QsgdSpec(16),        QsgdSpec(8),
          QsgdSpec(4),         QsgdSpec(2),         OneBitSgdReshapedSpec(64),
          OneBitSgdSpec()};
}

std::vector<CodecSpec> NcclFigureCodecs() {
  return {FullPrecisionSpec(), QsgdSpec(16), QsgdSpec(8), QsgdSpec(4),
          QsgdSpec(2)};
}

std::vector<CodecSpec> DgxMpiFigureCodecs() {
  return {FullPrecisionSpec(), QsgdSpec(4), OneBitSgdReshapedSpec(64),
          OneBitSgdSpec()};
}

CodecSpec CodecForShortLabel(const std::string& label) {
  if (label == "32bit") return FullPrecisionSpec();
  if (label == "Q16") return QsgdSpec(16);
  if (label == "Q8") return QsgdSpec(8);
  if (label == "Q4") return QsgdSpec(4);
  if (label == "Q2") return QsgdSpec(2);
  if (label == "1b") return OneBitSgdSpec();
  if (label == "1b*") return OneBitSgdReshapedSpec(64);
  LOG(Fatal) << "unknown precision label: " << label;
  return {};
}

std::string RenderSplitBar(double comm, double compute, double max_total,
                           int width) {
  const double total = comm + compute;
  if (max_total <= 0.0 || total <= 0.0) return "";
  const int total_chars = std::max(
      1, static_cast<int>(total / max_total * width + 0.5));
  int comm_chars =
      static_cast<int>(comm / total * total_chars + 0.5);
  comm_chars = std::min(comm_chars, total_chars);
  // '=' = communication (bottom of the paper's bars), '#' = computation.
  return std::string(static_cast<size_t>(comm_chars), '=') +
         std::string(static_cast<size_t>(total_chars - comm_chars), '#');
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::cout << "\n"
            << "==============================================================="
            << "=\n"
            << figure << "\n"
            << description << "\n"
            << "==============================================================="
            << "=\n";
}

std::string RatioCell(double modeled, std::optional<double> paper) {
  if (!paper.has_value()) return "-";
  return FormatDouble(modeled / *paper, 2);
}

void PrintEpochTimeBars(const std::string& figure_name,
                        const std::string& description,
                        const MachineSpec& machine, CommPrimitive primitive,
                        const std::vector<CodecSpec>& codecs,
                        const std::vector<int>& gpu_counts) {
  PrintHeader(figure_name, description);
  for (const std::string& network : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(network);
    CHECK_OK(stats.status());
    PerfModel model(*stats, machine);

    struct Row {
      std::string label;
      int gpus;
      double comm_hours;
      double compute_hours;
    };
    std::vector<Row> rows;
    double max_total = 0.0;
    for (const CodecSpec& codec : codecs) {
      for (int gpus : gpu_counts) {
        auto est = model.Estimate(codec, primitive, gpus);
        if (!est.ok()) continue;
        const double scale =
            static_cast<double>(stats->dataset_samples) /
            est->global_batch / 3600.0;
        Row row;
        row.label = codec.ShortLabel();
        row.gpus = gpus;
        row.comm_hours = (est->comm_seconds + est->encode_seconds) * scale;
        row.compute_hours = est->compute_seconds * scale;
        max_total = std::max(max_total, row.comm_hours + row.compute_hours);
        rows.push_back(std::move(row));
      }
    }

    std::cout << "\n--- " << network << " - "
              << CommPrimitiveName(primitive) << " ("
              << machine.name << ") ---\n";
    std::cout << "  time per epoch, '=' = communication (incl. "
                 "quantize/unquantize), '#' = computation\n";
    for (const Row& row : rows) {
      const double total = row.comm_hours + row.compute_hours;
      std::cout << "  " << row.label
                << std::string(6 - std::min<size_t>(6, row.label.size()),
                               ' ')
                << "x" << row.gpus << (row.gpus < 10 ? " " : "") << " |"
                << RenderSplitBar(row.comm_hours, row.compute_hours,
                                  max_total, 46)
                << "  " << FormatDouble(total, 2) << " h/epoch ("
                << FormatDouble(row.comm_hours / total * 100.0, 0)
                << "% comm)\n";
    }
  }
}

void PrintScalabilityFigure(const std::string& figure_name,
                            const std::string& description,
                            const MachineSpec& machine,
                            CommPrimitive primitive,
                            const std::vector<CodecSpec>& codecs,
                            const std::vector<int>& gpu_counts) {
  PrintHeader(figure_name, description);
  for (const std::string& network : PerformanceFigureNetworks()) {
    auto stats = FindNetworkStats(network);
    CHECK_OK(stats.status());
    PerfModel model(*stats, machine);

    std::vector<std::string> header = {"Precision"};
    for (int gpus : gpu_counts) header.push_back(StrCat(gpus, " GPUs"));
    TablePrinter table(std::move(header));
    for (const CodecSpec& codec : codecs) {
      std::vector<std::string> row = {codec.ShortLabel()};
      for (int gpus : gpu_counts) {
        auto s = model.Scalability(codec, primitive, gpus);
        row.push_back(s.ok() ? FormatDouble(*s, 2) : "NA");
      }
      table.AddRow(std::move(row));
    }
    std::cout << "\n--- " << network << " - "
              << CommPrimitiveName(primitive) << " (" << machine.name
              << "), scalability vs 1-GPU 32bit ---\n";
    table.Print(std::cout);
  }
}

}  // namespace bench
}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Shared helpers for the figure-reproduction benchmark binaries: the
// paper's published measurements (for side-by-side comparison), codec
// lists per figure, and rendering helpers.
#ifndef LPSGD_BENCH_BENCH_UTIL_H_
#define LPSGD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "quant/codec.h"
#include "sim/perf_model.h"

namespace lpsgd {
namespace bench {

// Per-binary observability harness. Construction strips the flags
//   --metrics_out=<path>   write the structured run report (JSON) at exit
//   --obs=<list>           enable exporters on top of LPSGD_OBS (any subset
//                          of metrics,trace,profile,flight)
//   --obs_out=<prefix>     their output prefix (default: the binary name)
// from argc/argv (so they never reach other flag parsers, e.g. Google
// Benchmark's) and enables what they ask for. Destruction writes the run
// report and each switched-on exporter's file (obs::WriteOutputs). Every
// bench main constructs one as its first statement.
class BenchRun {
 public:
  BenchRun(int* argc, char** argv, const std::string& binary_name);
  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;
  ~BenchRun();

  const std::string& metrics_path() const { return metrics_path_; }

 private:
  std::string metrics_path_;
  std::string obs_out_;
  // Exporters switched on by LPSGD_OBS or --obs, whose files are written
  // at exit (--metrics_out alone enables metrics for the report only).
  uint32_t switched_ = 0;
};

// One row key of Figures 10/11: (network, precision short label).
struct PaperRowKey {
  std::string network;
  std::string precision;  // "32bit", "Q16", "Q8", "Q4", "Q2", "1b", "1b*"

  bool operator<(const PaperRowKey& other) const {
    if (network != other.network) return network < other.network;
    return precision < other.precision;
  }
};

// Published samples/sec from Figure 10 (MPI on EC2), keyed by
// (network, precision) -> {gpus -> samples/sec}. Missing entries ("/" in
// the paper) are absent.
const std::map<PaperRowKey, std::map<int, double>>& PaperFigure10();

// Published samples/sec from Figure 11 (NCCL on EC2).
const std::map<PaperRowKey, std::map<int, double>>& PaperFigure11();

// Looks up a published value; nullopt when the paper has "/" there.
std::optional<double> PaperValue(
    const std::map<PaperRowKey, std::map<int, double>>& table,
    const std::string& network, const std::string& precision, int gpus);

// The precision configurations of each figure, in the paper's column
// order.
std::vector<CodecSpec> MpiFigureCodecs();   // 32, Q16, Q8, Q4, Q2, 1b*, 1b
std::vector<CodecSpec> NcclFigureCodecs();  // 32, Q16, Q8, Q4, Q2
std::vector<CodecSpec> DgxMpiFigureCodecs();  // 32, Q4, 1b*, 1b

// Resolves the codec spec for a short label used by the tables.
CodecSpec CodecForShortLabel(const std::string& label);

// Renders a horizontal ASCII bar of `value` against `max_value`, split
// into a communication part and a computation part (the paper's stacked
// bars), e.g. "=====####  1.23 h".
std::string RenderSplitBar(double comm, double compute, double max_total,
                           int width);

// Prints a standard benchmark header.
void PrintHeader(const std::string& figure, const std::string& description);

// "model/paper" ratio formatted for tables; "-" when paper has no value.
std::string RatioCell(double modeled, std::optional<double> paper);

// Renders one epoch-time bar figure (the layout of Figures 6-9): for each
// ImageNet network, a bar per (codec, gpu count) showing hours/epoch split
// into communication ('=', includes encode/decode) and computation ('#').
void PrintEpochTimeBars(const std::string& figure_name,
                        const std::string& description,
                        const MachineSpec& machine, CommPrimitive primitive,
                        const std::vector<CodecSpec>& codecs,
                        const std::vector<int>& gpu_counts);

// Renders one scalability figure (the layout of Figures 12-15): per
// network, scalability (samples/sec over 1-GPU 32bit samples/sec) per
// codec per GPU count.
void PrintScalabilityFigure(const std::string& figure_name,
                            const std::string& description,
                            const MachineSpec& machine,
                            CommPrimitive primitive,
                            const std::vector<CodecSpec>& codecs,
                            const std::vector<int>& gpu_counts);

}  // namespace bench
}  // namespace lpsgd

#endif  // LPSGD_BENCH_BENCH_UTIL_H_

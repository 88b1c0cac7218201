// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// CLI around the calibrated performance model: estimate any single
// configuration of the paper's trade-off space.
//
//   ./perf_explorer <network> <machine> <mpi|nccl> <codec> <gpus>
//                   [--obs <list>] [--obs_out <prefix>]
//   ./perf_explorer AlexNet p2.8xlarge mpi q4 8
//   ./perf_explorer VGG19 DGX-1 nccl 32bit 8
//   ./perf_explorer ResNet50 p2.16xlarge mpi 1bit*:64 16 --obs=profile
//
// Codec grammar (from the codec registry; a bad spec prints the full
// per-family help): 32bit | 1bit | 1bit*[:<bucket>] | q<bits>[:<bucket>]
//   | aq<bits>[:<bucket>] | nuq<bits>[:<bucket>] | ecq<bits>[:<bucket>]
//   | terngrad[:clip=<c>] | topk:<density> — families also take
//   key=value parameters, e.g. q4:bucket=512,norm=l2.
//
// --obs takes the same exporter list as train_cli and the LPSGD_OBS
// environment variable. With the profile exporter on, the estimated
// iteration is recorded as one profiler step (virtual compute/encode/wire
// phases), printed as a table and written to <prefix>.profile.json
// (--obs_out, default "perf_explorer"), so model estimates and measured
// training runs share one JSON schema and table format.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/strings.h"
#include "machine/specs.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "quant/codec.h"
#include "quant/registry.h"
#include "sim/perf_model.h"

int main(int argc, char** argv) {
  using namespace lpsgd;  // NOLINT(build/namespaces)
  // Split --obs and --obs_out ("--flag value" or "--flag=value") out of
  // the positional arguments.
  std::string obs_list;
  std::string obs_out = "perf_explorer";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    std::string* value = flag == "--obs"       ? &obs_list
                         : flag == "--obs_out" ? &obs_out
                                               : nullptr;
    if (value == nullptr) {
      std::cerr << "unknown flag " << flag << " (flags: --obs, --obs_out)\n";
      return 1;
    }
    if (eq != std::string::npos) {
      *value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      *value = argv[++i];
    } else {
      std::cerr << "missing value for " << flag << "\n";
      return 1;
    }
  }
  obs::EnableFromFlags(obs_list, obs_out);
  const std::string network =
      positional.size() > 0 ? positional[0] : "AlexNet";
  const std::string machine_name =
      positional.size() > 1 ? positional[1] : "p2.8xlarge";
  const std::string primitive_name =
      positional.size() > 2 ? positional[2] : "mpi";
  const std::string codec_text = positional.size() > 3 ? positional[3] : "q4";
  const int gpus = positional.size() > 4 ? std::atoi(positional[4].c_str()) : 8;

  auto stats = FindNetworkStats(network);
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    return 1;
  }
  auto machine = FindMachine(machine_name);
  if (!machine.ok()) {
    std::cerr << machine.status() << "\n";
    return 1;
  }
  auto spec = CodecSpec::Parse(codec_text);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\nregistered codecs:\n";
    for (const std::string& line : CodecRegistry::Global().HelpLines()) {
      std::cerr << "  " << line << "\n";
    }
    return 1;
  }
  const CommPrimitive primitive = primitive_name == "nccl"
                                      ? CommPrimitive::kNccl
                                      : CommPrimitive::kMpi;

  PerfModel model(*stats, *machine);
  auto est = model.Estimate(*spec, primitive, gpus);
  if (!est.ok()) {
    std::cerr << est.status() << "\n";
    return 1;
  }

  std::cout << network << " on " << machine->name << " x" << gpus
            << " GPUs, " << spec->Label() << " over "
            << CommPrimitiveName(primitive) << "\n\n";
  std::cout << "  global batch:        " << est->global_batch << " ("
            << est->per_gpu_batch << " per GPU)\n";
  std::cout << "  computation:         "
            << HumanSeconds(est->compute_seconds) << " per iteration\n";
  std::cout << "  quantize/unquantize: "
            << HumanSeconds(est->encode_seconds) << "\n";
  std::cout << "  communication:       " << HumanSeconds(est->comm_seconds)
            << " (" << HumanBytes(static_cast<double>(est->wire_bytes))
            << " on the wire, vs "
            << HumanBytes(static_cast<double>(est->raw_bytes))
            << " fp32)\n";
  std::cout << "  iteration:           "
            << HumanSeconds(est->IterationSeconds()) << " ("
            << FormatDouble(est->SamplesPerSecond(), 1) << " samples/s)\n";
  std::cout << "  with ideal overlap:  "
            << HumanSeconds(est->OverlappedIterationSeconds()) << " ("
            << FormatDouble(est->OverlappedSamplesPerSecond(), 1)
            << " samples/s)\n";
  std::cout << "  epoch:               "
            << HumanSeconds(est->EpochSeconds(stats->dataset_samples))
            << "\n";
  const double recipe_hours = est->EpochSeconds(stats->dataset_samples) *
                              stats->recipe_epochs / 3600.0;
  std::cout << "  published recipe:    " << stats->recipe_epochs
            << " epochs = " << FormatDouble(recipe_hours, 1) << " h, $"
            << FormatDouble(recipe_hours * machine->price_per_hour_usd, 0)
            << " at $" << FormatDouble(machine->price_per_hour_usd, 1)
            << "/h\n";

  if (obs::ProfileEnabled()) {
    // Record the estimate as one profiler step so it lands in the same
    // schema (and table) as a measured training run's breakdown.
    obs::PhaseTimes estimate;
    estimate.AddVirtual(obs::kPhaseForward, est->compute_seconds);
    estimate.AddVirtual(obs::kPhaseEncode, est->encode_seconds);
    estimate.AddVirtual(obs::kPhaseWire, est->comm_seconds);
    obs::Profiler& profiler = obs::Profiler::Global();
    profiler.BeginStep(0);
    profiler.AddPhases(estimate);
    profiler.EndStep(est->IterationSeconds());
    std::cout << "\nestimated iteration breakdown:\n";
    profiler.PrintTable(std::cout);
  }
  std::vector<std::string> written;
  if (Status status = obs::WriteOutputs(obs_out, obs::Exporters(), &written);
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  for (const std::string& path : written) {
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

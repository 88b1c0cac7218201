// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// CLI around the calibrated performance model: estimate any single
// configuration of the paper's trade-off space.
//
//   ./perf_explorer <network> <machine> <mpi|nccl> <codec> <gpus>
//                   [--threads N] [--profile_out <path>]
//                   [--simd auto|scalar|avx2|neon]
//   ./perf_explorer AlexNet p2.8xlarge mpi q4 8
//   ./perf_explorer VGG19 DGX-1 nccl 32bit 8
//   ./perf_explorer ResNet50 p2.16xlarge mpi 1bit*:64 16 --threads 4
//
// Codec grammar (from the codec registry; a bad spec prints the full
// per-family help): 32bit | 1bit | 1bit*[:<bucket>] | q<bits>[:<bucket>]
//   | aq<bits>[:<bucket>] | nuq<bits>[:<bucket>] | ecq<bits>[:<bucket>]
//   | terngrad[:clip=<c>] | topk:<density> — families also take
//   key=value parameters, e.g. q4:bucket=512,norm=l2.
//
// --profile_out writes the estimated iteration as a profiler breakdown
// (virtual compute/encode/wire phases) so model estimates and measured
// training runs share one JSON schema and table format.
// --simd pins the codec kernel dispatch; the estimate itself is
// closed-form, but the header reports the effective ISA so perf-model
// headers line up with measured-run headers.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "base/simd/simd.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "machine/specs.h"
#include "obs/profile.h"
#include "quant/codec.h"
#include "quant/registry.h"
#include "sim/perf_model.h"

int main(int argc, char** argv) {
  using namespace lpsgd;  // NOLINT(build/namespaces)
  // Split --threads (as "--threads N" or "--threads=N") out of the
  // positional arguments.
  int threads = 0;  // 0 = one worker per hardware thread
  std::string profile_out;
  std::string simd_mode;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for --threads\n";
        return 1;
      }
      threads = std::atoi(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + std::string("--threads=").size());
    } else if (arg == "--profile_out") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for --profile_out\n";
        return 1;
      }
      profile_out = argv[++i];
    } else if (arg.rfind("--profile_out=", 0) == 0) {
      profile_out = arg.substr(std::string("--profile_out=").size());
    } else if (arg == "--simd") {
      if (i + 1 >= argc) {
        std::cerr << "missing value for --simd\n";
        return 1;
      }
      simd_mode = argv[++i];
    } else if (arg.rfind("--simd=", 0) == 0) {
      simd_mode = arg.substr(std::string("--simd=").size());
    } else {
      positional.push_back(arg);
    }
  }
  if (!simd_mode.empty()) {
    if (Status status = SetSimdMode(simd_mode); !status.ok()) {
      std::cerr << status << " (--simd takes auto|scalar|avx2|neon)\n";
      return 1;
    }
  }
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
  auto spec = ParseCodecSpec(codec_text);
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

  // The estimate itself is closed-form; the header still reports the
  // effective execution context so run headers are uniform across tools.
  ExecutionContext execution;
  execution.intra_op_threads = threads;
  std::cout << network << " on " << machine->name << " x" << gpus
            << " GPUs, " << spec->Label() << " over "
            << CommPrimitiveName(primitive) << ", execution "
            << execution.Description() << ", simd "
            << SimdIsaName(ActiveSimdIsa()) << "\n\n";
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

  if (!profile_out.empty()) {
    // Export the estimate through the profiler so it lands in the same
    // schema (and table) as a measured training run's breakdown.
    obs::PhaseTimes estimate;
    estimate.AddVirtual(obs::kPhaseForward, est->compute_seconds);
    estimate.AddVirtual(obs::kPhaseEncode, est->encode_seconds);
    estimate.AddVirtual(obs::kPhaseWire, est->comm_seconds);
    obs::Profiler profiler(/*enabled=*/true);
    profiler.BeginStep(0);
    profiler.AddPhases(estimate);
    profiler.EndStep(est->IterationSeconds());
    std::cout << "\nestimated iteration breakdown:\n";
    profiler.PrintTable(std::cout);
    if (Status status = obs::WriteJsonFile(profile_out, profiler.ToJson());
        !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::cout << "profile written to " << profile_out << "\n";
  }
  return 0;
}

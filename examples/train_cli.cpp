// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Configurable training driver: pick the task, model, GPU count,
// precision, and primitive from the command line and watch synchronous
// data-parallel training run with full communication accounting.
//
//   ./train_cli [--task image|sequence] [--model mlp|alexnet|resnet|lstm]
//               [--codec <spec>] [--gpus N] [--batch N] [--epochs N]
//               [--lr F] [--primitive mpi|nccl] [--seed N] [--threads N]
//               [--fault_plan <spec>] [--checkpoint_every N]
//               [--max_retries N] [--obs <list>] [--obs_out <prefix>]
//               [--simd auto|scalar|avx2|neon]
//               [--save_dir <dir>] [--save_every N]
//               [--checkpoint_keep N] [--resume 0|1]
//
// Every flag also takes the --flag=value form.
//
//   ./train_cli --model resnet --codec 1bit*:16 --gpus 8 --epochs 15
//   ./train_cli --task sequence --model lstm --codec q2 --threads 4
//   ./train_cli --fault_plan "fail@3x2;crash@9:1" --checkpoint_every 4
//               --max_retries 1
//
// --threads sets the host worker count for the per-rank work (0 = one
// per hardware thread, 1 = serial); results are identical either way.
//
// Codec grammar (from the codec registry; a bad spec prints the full
// per-family help): 32bit | 1bit | 1bit*[:<bucket>] | q<bits>[:<bucket>]
//   | aq<bits>[:<bucket>] | nuq<bits>[:<bucket>] | ecq<bits>[:<bucket>]
//   | terngrad[:clip=<c>] | topk:<density> — families also take
//   key=value parameters, e.g. q4:bucket=512,norm=l2.
//
// Fault-plan grammar (';'-separated): straggle@<iter>:<seconds> |
//   fail@<iter>[x<count>] | corrupt@<iter>[x<count>] | crash@<iter>:<rank>
//   | torn@<iter> | shortwrite@<iter> | enospc@<iter>[x<count>]
//   | kill@<iter> | seed=<n>. Faults replay deterministically;
// --checkpoint_every enables rollback-and-replay, --max_retries the
// per-exchange retry budget, and a crashed rank is dropped with training
// renormalized over the survivors. Storage verbs corrupt durable
// checkpoint writes; kill@ aborts the process loop right after the
// durable save at that iteration (exit code 3).
//
// --save_dir enables durable crash-consistent checkpoints (written every
// --save_every iterations plus once at the end; --checkpoint_keep
// retains the newest N). --resume 1 restores the newest valid checkpoint
// from --save_dir and trains the remaining epochs; pass the fault plan
// WITHOUT the kill@ verb on the resumed run or it fires again.
//
// --obs enables observability exporters on top of the LPSGD_OBS
// environment variable; both take any comma-separated subset of
// "metrics,trace,profile,flight". After training every enabled exporter
// writes under --obs_out (default "train_cli"): <prefix>.trace.json (Chrome
// trace, one lane per worker thread), <prefix>.profile.json (the per-step
// phase breakdown, also printed as a table) and <prefix>.metrics.json;
// the flight recorder dumps each non-OK exchange's recent history to
// <prefix>.flight.<n>.json as it happens.
// --simd pins the codec kernel dispatch (default: LPSGD_SIMD env, else
// CPU detection); "scalar" forces the golden reference kernels. Results
// are bit-identical under every mode.
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/simd/simd.h"
#include "base/strings.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "nn/model_zoo.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "quant/registry.h"

namespace lpsgd {
namespace {

struct Args {
  std::string task = "image";
  std::string model = "alexnet";
  std::string codec = "q4";
  std::string primitive = "mpi";
  int gpus = 4;
  int batch = 32;
  int epochs = 15;
  float lr = 0.05f;
  uint64_t seed = 42;
  int threads = 0;  // 0 = one worker per hardware thread
  std::string fault_plan;  // empty = no injected faults
  int checkpoint_every = 0;  // 0 = no in-memory checkpoints
  int max_retries = 0;  // per-exchange retry budget
  std::string obs;                   // exporters added to LPSGD_OBS
  std::string obs_out = "train_cli";  // output file prefix
  std::string simd;  // empty = LPSGD_SIMD env, else CPU detection
  std::string save_dir;   // empty = durable checkpoints disabled
  int save_every = 0;     // durable save cadence in iterations (0 = end only)
  int checkpoint_keep = 3;  // newest durable checkpoints retained
  int resume = 0;           // 1 = restore newest checkpoint from save_dir
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc;) {
    // "--flag value" or "--flag=value".
    std::string flag = argv[i++];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i < argc) {
      value = argv[i++];
    } else {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    if (flag == "--task") {
      args->task = value;
    } else if (flag == "--model") {
      args->model = value;
    } else if (flag == "--codec") {
      args->codec = value;
    } else if (flag == "--primitive") {
      args->primitive = value;
    } else if (flag == "--gpus") {
      args->gpus = std::atoi(value.c_str());
    } else if (flag == "--batch") {
      args->batch = std::atoi(value.c_str());
    } else if (flag == "--epochs") {
      args->epochs = std::atoi(value.c_str());
    } else if (flag == "--lr") {
      args->lr = static_cast<float>(std::atof(value.c_str()));
    } else if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--threads") {
      args->threads = std::atoi(value.c_str());
    } else if (flag == "--fault_plan") {
      args->fault_plan = value;
    } else if (flag == "--checkpoint_every") {
      args->checkpoint_every = std::atoi(value.c_str());
    } else if (flag == "--max_retries") {
      args->max_retries = std::atoi(value.c_str());
    } else if (flag == "--obs") {
      args->obs = value;
    } else if (flag == "--obs_out") {
      args->obs_out = value;
    } else if (flag == "--simd") {
      args->simd = value;
    } else if (flag == "--save_dir") {
      args->save_dir = value;
    } else if (flag == "--save_every") {
      args->save_every = std::atoi(value.c_str());
    } else if (flag == "--checkpoint_keep") {
      args->checkpoint_keep = std::atoi(value.c_str());
    } else if (flag == "--resume") {
      args->resume = std::atoi(value.c_str());
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  if (!args.simd.empty()) {
    if (Status status = SetSimdMode(args.simd); !status.ok()) {
      std::cerr << status << " (--simd takes auto|scalar|avx2|neon)\n";
      return 1;
    }
  }
  auto spec = CodecSpec::Parse(args.codec);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\nregistered codecs:\n";
    for (const std::string& line : CodecRegistry::Global().HelpLines()) {
      std::cerr << "  " << line << "\n";
    }
    return 1;
  }

  // Datasets.
  std::unique_ptr<Dataset> train, test;
  SyncTrainer::NetworkFactory factory;
  if (args.task == "image") {
    SyntheticImageOptions options;
    options.num_classes = 10;
    options.channels = 1;
    options.height = 8;
    options.width = 8;
    options.num_samples = 512;
    options.signal = 1.2f;
    options.noise = 0.8f;
    options.seed = args.seed;
    train = std::make_unique<SyntheticImageDataset>(options);
    options.num_samples = 256;
    options.sample_offset = 1 << 20;
    test = std::make_unique<SyntheticImageDataset>(options);

    if (args.model == "mlp") {
      factory = [](uint64_t seed) { return BuildMlp({64, 48, 10}, seed); };
    } else if (args.model == "alexnet") {
      factory = [](uint64_t seed) {
        return BuildMiniAlexNet(1, 8, 10, seed);
      };
    } else if (args.model == "resnet") {
      factory = [](uint64_t seed) {
        return BuildMiniResNetTwoStage(1, 8, 8, 10, seed);
      };
    } else {
      std::cerr << "image task supports --model mlp|alexnet|resnet\n";
      return 1;
    }
  } else if (args.task == "sequence") {
    SyntheticSequenceOptions options;
    options.num_classes = 8;
    options.time_steps = 10;
    options.frame_dim = 12;
    options.num_samples = 256;
    options.noise = 1.0f;
    options.seed = args.seed;
    train = std::make_unique<SyntheticSequenceDataset>(options);
    options.num_samples = 128;
    options.sample_offset = 1 << 20;
    test = std::make_unique<SyntheticSequenceDataset>(options);
    factory = [](uint64_t seed) {
      return BuildDeepLstmClassifier(12, 16, 2, 8, seed);
    };
    if (args.model != "lstm") {
      std::cerr << "(sequence task always uses --model lstm)\n";
    }
  } else {
    std::cerr << "unknown task: " << args.task << "\n";
    return 1;
  }

  TrainerOptions options;
  options.num_gpus = args.gpus;
  options.global_batch_size = args.batch;
  options.learning_rate = args.lr;
  options.codec = *spec;
  options.primitive =
      args.primitive == "nccl" ? CommPrimitive::kNccl : CommPrimitive::kMpi;
  options.seed = args.seed;
  options.execution.intra_op_threads = args.threads;
  if (!args.fault_plan.empty()) {
    auto plan = fault::FaultPlan::Parse(args.fault_plan);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    options.fault_tolerance.plan = *plan;
  }
  options.fault_tolerance.checkpoint_every = args.checkpoint_every;
  options.fault_tolerance.retry.max_retries = args.max_retries;
  if (!args.save_dir.empty()) {
    options.durable_checkpoint.save_dir = args.save_dir;
    options.durable_checkpoint.save_every = args.save_every;
    options.durable_checkpoint.keep = args.checkpoint_keep;
  }

  obs::EnableFromFlags(args.obs, args.obs_out);

  int epochs_to_run = args.epochs;
  StatusOr<std::unique_ptr<SyncTrainer>> trainer =
      InvalidArgumentError("trainer not constructed");
  if (args.resume != 0) {
    if (args.save_dir.empty()) {
      std::cerr << "--resume 1 needs --save_dir\n";
      return 1;
    }
    auto manager =
        ckpt::CheckpointManager::Create(options.durable_checkpoint);
    if (!manager.ok()) {
      std::cerr << manager.status() << "\n";
      return 1;
    }
    auto restored = (*manager)->RestoreLatest();
    if (!restored.ok()) {
      std::cerr << restored.status() << "\n";
      return 1;
    }
    std::cout << "resuming from " << restored->path << " (iteration "
              << restored->state.iteration << ", "
              << restored->state.epochs_completed
              << " epochs completed)\n";
    epochs_to_run = args.epochs - restored->state.epochs_completed;
    trainer = SyncTrainer::Restore(factory, options, restored->state);
  } else {
    trainer = SyncTrainer::Create(factory, options);
  }
  if (!trainer.ok()) {
    std::cerr << trainer.status() << "\n";
    return 1;
  }

  std::cout << "Training " << args.model << " on " << args.task
            << " task: " << args.gpus << " simulated GPUs, "
            << spec->Label() << " over " << args.primitive << ", batch "
            << args.batch << ", lr " << args.lr << ", execution "
            << (*trainer)->options().execution.Description() << ", simd "
            << SimdIsaName(ActiveSimdIsa()) << "\n";
  const fault::FaultToleranceOptions& ft =
      (*trainer)->options().fault_tolerance;
  if (ft.enabled()) {
    std::cout << "fault tolerance: plan \""
              << (ft.plan.empty() ? std::string("none")
                                  : ft.plan.ToString())
              << "\", checkpoint every " << ft.checkpoint_every
              << " steps, " << ft.retry.max_retries
              << " retries per exchange\n";
  }
  std::cout << "\n";
  std::cout << "epoch  train_loss  train_acc  test_acc  test_top5\n";
  auto metrics = (*trainer)->Train(*train, *test, epochs_to_run);
  if (!metrics.ok()) {
    if (fault::IsProcessKill(metrics.status())) {
      // The durable checkpoint for this iteration landed before the kill
      // fired; a restart with --resume 1 (and the kill@ verb stripped
      // from the plan) picks up from it.
      std::cerr << "simulated crash: " << metrics.status() << "\n";
      return 3;
    }
    std::cerr << metrics.status() << "\n";
    return 1;
  }
  if (!args.save_dir.empty()) {
    if (Status status = (*trainer)->SaveDurableNow(); !status.ok()) {
      std::cerr << "final checkpoint save failed: " << status << "\n";
      return 1;
    }
  }
  for (const EpochMetrics& m : *metrics) {
    std::cout << "  " << m.epoch << "\t" << FormatDouble(m.train_loss, 4)
              << "\t" << FormatDouble(m.train_accuracy * 100.0, 1) << "%\t"
              << FormatDouble(m.test_accuracy * 100.0, 1) << "%\t"
              << FormatDouble(m.test_top5_accuracy * 100.0, 1) << "%\n";
  }

  const CommStats& comm = (*trainer)->total_comm();
  std::cout << "\ncommunication: "
            << HumanBytes(static_cast<double>(comm.wire_bytes))
            << " on the wire (fp32 would be "
            << HumanBytes(static_cast<double>(comm.raw_bytes)) << ", "
            << FormatDouble(comm.CompressionRatio(), 1)
            << "x compression), " << comm.messages << " messages, "
            << HumanSeconds(comm.TotalSeconds()) << " simulated\n";
  if ((*trainer)->live_gpus() != (*trainer)->num_gpus()) {
    std::cout << "degraded: finished on " << (*trainer)->live_gpus()
              << " of " << (*trainer)->num_gpus()
              << " ranks (crashed ranks dropped)\n";
  }

  if (obs::ProfileEnabled()) {
    obs::Profiler& profiler = obs::Profiler::Global();
    std::cout << "\nstep-phase breakdown ("
              << profiler.steps_recorded() << " steps):\n";
    profiler.PrintTable(std::cout);
  }
  if (obs::FlightRecorderEnabled()) {
    std::cout << "flight recorder: "
              << obs::FlightRecorder::Global().dump_count()
              << " dump(s), "
              << obs::FlightRecorder::Global().record_count()
              << " records\n";
  }
  std::vector<std::string> written;
  if (Status status = obs::WriteOutputs(args.obs_out, obs::Exporters(),
                                         &written);
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  for (const std::string& path : written) {
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace lpsgd

int main(int argc, char** argv) {
  lpsgd::Args args;
  if (!lpsgd::ParseArgs(argc, argv, &args)) return 1;
  return lpsgd::Run(args);
}

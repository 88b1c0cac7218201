// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// bench_e2e: the repository's end-to-end training benchmark. It drives the
// real SyncTrainer::Train over the workloads in workloads.h and reports
// end-to-end metrics measured with tracing off; --traced adds a second,
// instrumented run of the same epochs that splits each step into
// per-layer metrics. README.md in this directory defines every metric.
//
//   bench_e2e --workload=<name|all> [--seed=1] [--seconds=S | --epochs=N]
//             [--traced] [--smoke] [--scratch_dir=DIR] [--update_golden]
//             [--gate_out=PATH]
//
// Training is a closed loop: one process, one synchronous step after
// another, on a pool of kThreads threads. --workload=all runs each
// workload in a fresh child process so its peak RSS and thread pool are
// its own. The last stdout line is a JSON object with the metrics, the
// correctness checks and the host. Exit status: 0 when every check
// passed, 1 when one failed, 2 on a usage or environment error.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "base/bit_packing.h"
#include "base/simd/simd.h"
#include "base/strings.h"
#include "ckpt/storage.h"
#include "core/trainer.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

#ifndef LPSGD_E2E_GOLDEN
#define LPSGD_E2E_GOLDEN "bench/e2e/golden.json"
#endif

namespace lpsgd {
namespace e2e {
namespace {

// Seed whose per-epoch parameter hashes and accuracies golden.json pins.
constexpr uint64_t kGoldenSeed = 1;
constexpr const char* kGoldenPath = LPSGD_E2E_GOLDEN;
// Repeated set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr int kReplaySteps = 20;
constexpr int kCheckpointSaves = 5;
// --smoke: every split shrunk to this share, and short replays.
constexpr double kSmokeScale = 0.125;
constexpr int kSmokeReplaySteps = 2;

struct Flags {
  std::string workload;
  uint64_t seed = kGoldenSeed;
  double seconds = 0.0;  // > 0: train until this much Train() wall time
  int epochs = 0;        // > 0: exactly this many timed epochs
  bool traced = false;
  bool smoke = false;
  bool update_golden = false;
  std::string scratch_dir;
  std::string gate_out;
};

// Parses all of `text` as a number.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    bool ok = true;
    if (key == "--workload" && has_value) {
      flags->workload = value;
    } else if (key == "--seed" && has_value) {
      ok = ParseNumber(value, &flags->seed);
    } else if (key == "--seconds" && has_value) {
      ok = ParseNumber(value, &flags->seconds) && flags->seconds > 0.0;
    } else if (key == "--epochs" && has_value) {
      ok = ParseNumber(value, &flags->epochs) && flags->epochs > 0;
    } else if (key == "--scratch_dir" && has_value) {
      flags->scratch_dir = value;
    } else if (key == "--gate_out" && has_value) {
      flags->gate_out = value;
    } else if (key == "--traced" && !has_value) {
      flags->traced = true;
    } else if (key == "--smoke" && !has_value) {
      flags->smoke = true;
    } else if (key == "--update_golden" && !has_value) {
      flags->update_golden = true;
    } else {
      ok = false;
    }
    if (!ok) {
      *error = StrCat("unknown flag or bad value: ", arg);
      return false;
    }
  }
  if (flags->workload.empty()) {
    *error = "--workload=<name|all> is required";
    return false;
  }
  if (flags->seconds > 0.0 && flags->epochs > 0) {
    *error = "--seconds and --epochs are exclusive";
    return false;
  }
  if (flags->update_golden &&
      (flags->seed != kGoldenSeed || flags->smoke || flags->seconds > 0.0 ||
       flags->epochs > 0)) {
    *error = "--update_golden records seed 1 at each workload's own epochs";
    return false;
  }
  return true;
}

// --- Host ------------------------------------------------------------------

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

obs::JsonValue HostJson() {
  obs::JsonValue host = obs::JsonValue::Object();
  host.Set("simd", SimdIsaName(ActiveSimdIsa()));
  host.Set("nproc", Nproc());
  host.Set("threads", kThreads);
  double load[3] = {0.0, 0.0, 0.0};
  obs::JsonValue load_avg = obs::JsonValue::Array();
  if (getloadavg(load, 3) == 3) {
    for (double value : load) load_avg.Append(value);
  }
  host.Set("load_avg", std::move(load_avg));
  return host;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Statistics ------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string HexHash(uint32_t hash) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", hash);
  return buf;
}

// FNV-1a over the raw bytes of every parameter of `net`, in Params() order.
std::string HashParams(Network& net) {
  std::vector<uint8_t> bytes;
  for (const ParamRef& param : net.Params()) {
    const auto* data = reinterpret_cast<const uint8_t*>(param.value->data());
    bytes.insert(bytes.end(), data,
                 data + sizeof(float) * static_cast<size_t>(param.value->size()));
  }
  return HexHash(Fnv1a32(bytes.data(), static_cast<int64_t>(bytes.size())));
}

// --- Report ----------------------------------------------------------------

class Report {
 public:
  void Metric(obs::JsonValue* group, const std::string& name, double value,
              const std::string& unit) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("value", value);
    entry.Set("unit", unit);
    group->Set(name, std::move(entry));
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %16.6f  %s\n", name.c_str(),
                  value, unit.c_str());
    std::cout << line;
  }

  void Check(const std::string& name, bool ok, const std::string& detail) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("name", name);
    entry.Set("ok", ok);
    entry.Set("detail", detail);
    checks_.Append(std::move(entry));
    all_ok_ = all_ok_ && ok;
    std::cout << (ok ? "  ok    " : "  FAIL  ") << name << ": " << detail
              << "\n";
  }

  obs::JsonValue metrics = obs::JsonValue::Object();
  obs::JsonValue per_layer = obs::JsonValue::Object();
  const obs::JsonValue& checks() const { return checks_; }
  bool all_ok() const { return all_ok_; }

 private:
  obs::JsonValue checks_ = obs::JsonValue::Array();
  bool all_ok_ = true;
};

// --- One workload ----------------------------------------------------------

struct EpochRecord {
  std::string hash;
  double test_accuracy = 0.0;
  double train_loss = 0.0;
  double test_loss = 0.0;
};

// Everything one trainer reads and writes; members are declared so the
// trainer goes first when the fixture is destroyed.
struct Fixture {
  DataPair data;
  std::unique_ptr<StepRecorder> recorder;
  std::unique_ptr<ProbedDataset> train;
  std::unique_ptr<ProbedDataset> test;
  std::shared_ptr<TimedStorage> storage;  // null without durable saves
  std::unique_ptr<SyncTrainer> trainer;
  EpochRecord warmup;
};

struct TimedRun {
  std::vector<EpochRecord> epochs;
  double train_seconds = 0.0;
  int64_t samples = 0;
  int64_t steps = 0;
};

class Runner {
 public:
  Runner(const Workload& workload, const Flags& flags,
         std::filesystem::path scratch)
      : workload_(workload),
        flags_(flags),
        scratch_(std::move(scratch)),
        scale_(flags.smoke ? kSmokeScale : 1.0) {
    Network net = workload.build(flags.seed);
    for (int i = 0; i < net.num_layers(); ++i) {
      std::vector<ParamRef> params;
      net.layer(i).CollectParams(&params);
      layers_.push_back({net.layer(i).name(), !params.empty()});
    }
  }

  // Prints the report; `result` gets its JSON form. Returns the exit
  // status.
  int Run(obs::JsonValue* result);

 private:
  // Datasets, trainer and the warm-up epoch: the work setup_s times.
  StatusOr<std::unique_ptr<Fixture>> SetUp(bool traced,
                                           const ExecutionContext& execution);
  // One Train(train, test, 1) call; counts it and records its epoch.
  Status TrainEpoch(Fixture* fixture, EpochRecord* record, double* seconds);
  // Timed epochs: `epochs` of them, or until flags_.seconds when 0.
  StatusOr<TimedRun> TrainTimed(Fixture* fixture, int epochs);
  void CheckTraining(const TimedRun& run, Fixture* fixture);
  void CheckGolden(const Fixture& fixture, const TimedRun& run);
  Status UpdateGolden(const Fixture& fixture, const TimedRun& run);
  void ReportTraced(Fixture* fixture, const TimedRun& run,
                    double untraced_p50_ms, int64_t retries);
  std::vector<double> StepMs(const StepRecorder& recorder) const;

  struct TopLevelLayer {
    std::string name;
    bool has_params = false;
  };

  const Workload& workload_;
  const Flags& flags_;
  const std::filesystem::path scratch_;
  const double scale_;
  std::vector<TopLevelLayer> layers_;
  int fixtures_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  Report report_;
};

StatusOr<std::unique_ptr<Fixture>> Runner::SetUp(
    bool traced, const ExecutionContext& execution) {
  ClearUpperVectorState();
  auto fixture = std::make_unique<Fixture>();
  fixture->data = workload_.make_data(flags_.seed, scale_);
  TrainerOptions options = workload_.options(flags_.seed);
  options.execution = execution;
  if (options.durable_checkpoint.save_every > 0) {
    fixture->storage =
        std::make_shared<TimedStorage>(ckpt::MakePosixStorage());
    options.durable_checkpoint.storage = fixture->storage;
    options.durable_checkpoint.save_dir =
        (scratch_ / StrCat("train", fixtures_++)).string();
  }
  fixture->recorder = std::make_unique<StepRecorder>(
      options.global_batch_size, options.num_gpus,
      static_cast<int>(layers_.size()), traced);
  fixture->train = std::make_unique<ProbedDataset>(
      fixture->data.train.get(), fixture->recorder.get(), /*train=*/true);
  fixture->test = std::make_unique<ProbedDataset>(
      fixture->data.test.get(), fixture->recorder.get(), /*train=*/false);
  const SyncTrainer::NetworkFactory factory =
      traced ? ProbedFactory(workload_.build, fixture->recorder.get())
             : SyncTrainer::NetworkFactory(workload_.build);
  LPSGD_ASSIGN_OR_RETURN(fixture->trainer,
                         SyncTrainer::Create(factory, options));
  double seconds = 0.0;
  LPSGD_RETURN_IF_ERROR(TrainEpoch(fixture.get(), &fixture->warmup, &seconds));
  return fixture;
}

Status Runner::TrainEpoch(Fixture* fixture, EpochRecord* record,
                          double* seconds) {
  fixture->recorder->BeginEpoch();
  ++attempted_;
  const int64_t start = NowNs();
  StatusOr<std::vector<EpochMetrics>> metrics =
      fixture->trainer->Train(*fixture->train, *fixture->test, 1);
  const int64_t end = NowNs();
  fixture->recorder->EndEpoch(end);
  if (!metrics.ok() || metrics->empty()) {
    ++failed_;
    return metrics.ok() ? InternalError("Train returned no epoch")
                        : metrics.status();
  }
  *seconds = static_cast<double>(end - start) / 1e9;
  record->hash = HashParams(fixture->trainer->replica(0));
  record->test_accuracy = metrics->back().test_accuracy;
  record->train_loss = metrics->back().train_loss;
  record->test_loss = metrics->back().test_loss;
  return OkStatus();
}

StatusOr<TimedRun> Runner::TrainTimed(Fixture* fixture, int epochs) {
  TimedRun run;
  fixture->recorder->Reset();
  if (fixture->storage != nullptr) fixture->storage->ResetStats();
  for (;;) {
    EpochRecord record;
    double seconds = 0.0;
    LPSGD_RETURN_IF_ERROR(TrainEpoch(fixture, &record, &seconds));
    std::cout << "  epoch " << run.epochs.size() + 1 << ": "
              << FormatDouble(seconds, 3) << " s, train loss "
              << FormatDouble(record.train_loss, 4) << ", test accuracy "
              << FormatDouble(record.test_accuracy, 4) << ", hash "
              << record.hash << "\n";
    run.epochs.push_back(record);
    run.train_seconds += seconds;
    run.samples += fixture->train->NumSamples();
    const int done = static_cast<int>(run.epochs.size());
    if (epochs > 0 ? done >= epochs
                   : run.train_seconds >= flags_.seconds && done >= 2) {
      break;
    }
  }
  run.steps = fixture->recorder->batches();
  return run;
}

std::vector<double> Runner::StepMs(const StepRecorder& recorder) const {
  std::vector<double> ms;
  for (const StepSample& step : recorder.steps()) ms.push_back(Ms(step.total_ns));
  return ms;
}

void Runner::CheckTraining(const TimedRun& run, Fixture* fixture) {
  bool finite = std::isfinite(fixture->warmup.train_loss);
  for (const EpochRecord& e : run.epochs) {
    finite = finite && std::isfinite(e.train_loss) && std::isfinite(e.test_loss);
  }
  report_.Check("loss_finite", finite, "train and test loss of every epoch");
  const double accuracy = run.epochs.back().test_accuracy;
  if (!flags_.smoke) {
    report_.Check("test_accuracy", accuracy >= workload_.min_test_accuracy,
                  StrCat(FormatDouble(accuracy, 4), " after ",
                         run.epochs.size(), " timed epochs (floor ",
                         workload_.min_test_accuracy, ")"));
  }
  const std::string hash = HashParams(fixture->trainer->replica(0));
  bool identical = true;
  for (int r = 1; r < fixture->trainer->num_gpus(); ++r) {
    identical = identical && HashParams(fixture->trainer->replica(r)) == hash;
  }
  report_.Check("replicas_identical", identical,
                StrCat(fixture->trainer->num_gpus(), " replicas hash ", hash));
}

StatusOr<obs::JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError(StrCat("cannot read ", path));
  std::stringstream text;
  text << in.rdbuf();
  return obs::JsonValue::Parse(text.str());
}

// The warm-up epoch followed by the timed ones: what golden.json records.
std::vector<const EpochRecord*> GoldenEpochs(const Fixture& fixture,
                                             const TimedRun& run) {
  std::vector<const EpochRecord*> epochs = {&fixture.warmup};
  for (const EpochRecord& e : run.epochs) epochs.push_back(&e);
  return epochs;
}

void Runner::CheckGolden(const Fixture& fixture, const TimedRun& run) {
  StatusOr<obs::JsonValue> golden = ReadJsonFile(kGoldenPath);
  if (!golden.ok() || !golden->Has("workloads") ||
      !golden->At("workloads").Has(workload_.name) ||
      !golden->At("workloads").At(workload_.name).Has("epochs")) {
    report_.Check("golden", false,
                  StrCat("no entry for ", workload_.name, " in ",
                         kGoldenPath));
    return;
  }
  const std::vector<obs::JsonValue>& expected =
      golden->At("workloads").At(workload_.name).At("epochs").AsArray();
  const std::vector<const EpochRecord*> actual = GoldenEpochs(fixture, run);
  const size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string& hash = expected[i].At("hash").AsString();
    const double accuracy = expected[i].At("test_accuracy").AsDouble();
    if (actual[i]->hash != hash || actual[i]->test_accuracy != accuracy) {
      report_.Check("golden", false,
                    StrCat("epoch ", i, ": hash ", actual[i]->hash,
                           " accuracy ", actual[i]->test_accuracy,
                           ", golden ", hash, " accuracy ", accuracy));
      return;
    }
  }
  report_.Check("golden", n > 0,
                StrCat(n, " epochs match ", kGoldenPath, " (last hash ",
                       actual[n - 1]->hash, ")"));
}

Status Runner::UpdateGolden(const Fixture& fixture, const TimedRun& run) {
  StatusOr<obs::JsonValue> existing = ReadJsonFile(kGoldenPath);
  obs::JsonValue doc = existing.ok() && existing->kind() ==
                                            obs::JsonValue::Kind::kObject
                           ? *existing
                           : obs::JsonValue::Object();
  obs::JsonValue workloads = doc.Has("workloads") ? doc.At("workloads")
                                                  : obs::JsonValue::Object();
  obs::JsonValue epochs = obs::JsonValue::Array();
  for (const EpochRecord* e : GoldenEpochs(fixture, run)) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("hash", e->hash);
    entry.Set("test_accuracy", e->test_accuracy);
    epochs.Append(std::move(entry));
  }
  obs::JsonValue entry = obs::JsonValue::Object();
  entry.Set("epochs", std::move(epochs));
  workloads.Set(workload_.name, std::move(entry));
  doc.Set("seed", static_cast<int64_t>(kGoldenSeed));
  doc.Set("workloads", std::move(workloads));
  std::ofstream out(kGoldenPath);
  out << doc.Dump(2) << "\n";
  out.close();
  if (!out) return InternalError(StrCat("cannot write ", kGoldenPath));
  std::cout << "  wrote " << kGoldenPath << " entry for " << workload_.name
            << "\n";
  return OkStatus();
}

void Runner::ReportTraced(Fixture* fixture, const TimedRun& run,
                          double untraced_p50_ms, int64_t retries) {
  const StepRecorder& recorder = *fixture->recorder;
  obs::JsonValue& out = report_.per_layer;
  std::vector<double> fill, pre, compute, post, skew;
  double busy_sum = 0.0;
  double compute_sum = 0.0;
  for (const StepSample& s : recorder.steps()) {
    fill.push_back(Ms(s.fill_ns));
    pre.push_back(Ms(s.pre_ns));
    compute.push_back(Ms(s.compute_ns));
    post.push_back(Ms(s.post_ns));
    skew.push_back(Ms(s.busy_skew_ns));
    busy_sum += Ms(s.busy_sum_ns);
    compute_sum += Ms(s.compute_ns);
  }
  std::cout << "per-layer (traced, " << recorder.steps().size()
            << " non-final steps):\n";
  report_.Metric(&out, "data.fill_ms", Mean(fill), "ms");
  report_.Metric(&out, "core.pre_compute_ms", Mean(pre), "ms");
  report_.Metric(&out, "core.compute_wall_ms", Mean(compute), "ms");
  report_.Metric(&out, "core.post_compute_ms", Mean(post), "ms");
  report_.Metric(&out, "core.compute_efficiency",
                 compute_sum > 0.0 ? busy_sum / (kThreads * compute_sum) : 0.0,
                 "ratio");
  report_.Metric(&out, "core.rank_skew_ms", Mean(skew), "ms");
  std::vector<double> eval;
  for (int64_t ns : recorder.eval_ns()) eval.push_back(Ms(ns));
  report_.Metric(&out, "core.eval_ms", Mean(eval), "ms");
  const double steps = static_cast<double>(std::max<int64_t>(run.steps, 1));
  report_.Metric(&out, "core.replayed_steps",
                 static_cast<double>(recorder.rank0_forwards() - run.steps) /
                     steps,
                 "ratio");

  // Top-level layers: each parameterized one by name, the rest as
  // nn.other; then the same time by role, so every workload reports the
  // same names (first and last parameterized layer, everything between).
  const int num_layers = static_cast<int>(layers_.size());
  int first = num_layers;
  int last = -1;
  for (int i = 0; i < num_layers; ++i) {
    if (!layers_[static_cast<size_t>(i)].has_params) continue;
    first = std::min(first, i);
    last = i;
  }
  double other[2] = {0.0, 0.0};
  double role[3][2] = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  for (int i = 0; i < num_layers; ++i) {
    const TopLevelLayer& layer = layers_[static_cast<size_t>(i)];
    const int r = i == first ? 0 : (i == last ? 2 : 1);
    for (int bwd = 0; bwd < 2; ++bwd) {
      const double ms = Ms(recorder.LayerNs(i, bwd == 1)) / steps;
      role[r][bwd] += ms;
      if (!layer.has_params) {
        other[bwd] += ms;
      } else {
        report_.Metric(&out,
                       StrCat("nn.", layer.name, bwd ? ".bwd_ms" : ".fwd_ms"),
                       ms, "ms");
      }
    }
  }
  report_.Metric(&out, "nn.other.fwd_ms", other[0], "ms");
  report_.Metric(&out, "nn.other.bwd_ms", other[1], "ms");
  const char* const kRoles[] = {"first", "body", "last"};
  for (int r = 0; r < 3; ++r) {
    report_.Metric(&out, StrCat("nn.", kRoles[r], ".fwd_ms"), role[r][0], "ms");
    report_.Metric(&out, StrCat("nn.", kRoles[r], ".bwd_ms"), role[r][1], "ms");
  }

  const std::vector<GemmRate> gemms = MeasureGemms(workload_.gemms);
  for (size_t i = 0; i < gemms.size(); ++i) {
    for (const std::string& name :
         {gemms[i].name, StrCat("top", i + 1)}) {
      report_.Metric(&out, StrCat("tensor.gemm.", name, ".fwd_gflops"),
                     gemms[i].fwd_gflops, "GFLOP/s");
      report_.Metric(&out, StrCat("tensor.gemm.", name, ".dw_gflops"),
                     gemms[i].dw_gflops, "GFLOP/s");
      report_.Metric(&out, StrCat("tensor.gemm.", name, ".dx_gflops"),
                     gemms[i].dx_gflops, "GFLOP/s");
    }
  }

  StatusOr<ExchangeCosts> exchange = MeasureExchange(
      workload_, fixture->trainer->options(), fixture->trainer->replica(0),
      *fixture->data.train, flags_.smoke ? kSmokeReplaySteps : kReplaySteps);
  report_.Check("exchange_replay", exchange.ok(),
                exchange.ok() ? "every rank reduced to identical finite "
                                "gradients"
                              : exchange.status().ToString());
  if (exchange.ok()) {
    report_.Metric(&out, "quant.encode_ms", exchange->encode_ms, "ms");
    report_.Metric(&out, "quant.decode_ms", exchange->decode_ms, "ms");
    report_.Metric(&out, "quant.encode_melem_s", exchange->encode_melem_s,
                   "Melem/s");
    report_.Metric(&out, "quant.decode_melem_s", exchange->decode_melem_s,
                   "Melem/s");
    report_.Metric(&out, "quant.bytes_per_elem", exchange->bytes_per_elem,
                   "B/elem");
    report_.Metric(&out, "comm.allreduce_ms", exchange->allreduce_ms, "ms");
    report_.Metric(&out, "comm.virtual_ms", exchange->virtual_ms, "sim_ms");
    report_.Metric(&out, "comm.messages", exchange->messages, "count");
    report_.Metric(&out, "core.optimizer_ms", exchange->optimizer_ms, "ms");
  }
  report_.Metric(&out, "comm.retries", static_cast<double>(retries), "count");

  const int64_t train_saves =
      fixture->storage != nullptr ? fixture->storage->stats().saves : 0;
  StatusOr<StorageStats> saves = MeasureCheckpointSaves(
      *fixture->trainer, (scratch_ / "saves").string(), kCheckpointSaves);
  report_.Check("checkpoint_saves", saves.ok(),
                saves.ok() ? StrCat(kCheckpointSaves, " durable saves")
                           : saves.status().ToString());
  if (saves.ok()) {
    const double n = static_cast<double>(saves->saves);
    report_.Metric(&out, "ckpt.write_ms", Ms(saves->write_ns) / n, "ms");
    report_.Metric(&out, "ckpt.rename_ms", Ms(saves->rename_ns) / n, "ms");
    report_.Metric(&out, "ckpt.bytes", static_cast<double>(saves->bytes) / n,
                   "bytes");
  }
  report_.Metric(&out, "ckpt.saves", static_cast<double>(train_saves),
                 "count");

  const double traced_p50 = Percentile(StepMs(recorder), 0.5);
  report_.Metric(&out, "obs.trace_overhead_pct",
                 100.0 * (traced_p50 - untraced_p50_ms) / untraced_p50_ms,
                 "%");
}

int Runner::Run(obs::JsonValue* result) {
  std::cout << "bench_e2e workload=" << workload_.name
            << " seed=" << flags_.seed << " host=" << HostJson().Dump()
            << "\n";
  const ExecutionContext execution = ExecutionContext::WithThreads(kThreads);

  // Untraced: kSetups set-ups, the last of which trains the timed epochs.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const int setups = flags_.smoke ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    const int64_t start = NowNs();
    StatusOr<std::unique_ptr<Fixture>> built = SetUp(false, execution);
    if (!built.ok()) {
      report_.Check("setup", false, built.status().ToString());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    fixture = std::move(*built);
  }
  const int epochs = flags_.epochs > 0   ? flags_.epochs
                     : flags_.seconds > 0 ? 0
                                          : workload_.epochs;
  const double virtual0 = fixture->trainer->virtual_seconds();
  const int64_t wire0 = fixture->trainer->total_comm().wire_bytes;
  StatusOr<TimedRun> run = TrainTimed(fixture.get(), epochs);
  const double peak_rss = PeakRssMiB();
  if (!run.ok()) {
    report_.Check("train_calls", false, run.status().ToString());
    return 1;
  }

  const std::vector<double> step_ms = StepMs(*fixture->recorder);
  const double steps = static_cast<double>(run->steps);
  const double p50 = Percentile(step_ms, 0.5);
  std::cout << "end-to-end (untraced, " << run->epochs.size() << " epochs, "
            << run->steps << " steps, " << step_ms.size()
            << " non-final):\n";
  obs::JsonValue& m = report_.metrics;
  report_.Metric(&m, "samples_per_s",
                 static_cast<double>(run->samples) / run->train_seconds,
                 "samples/s");
  report_.Metric(&m, "step_ms_p50", p50, "ms");
  report_.Metric(&m, "step_ms_p90", Percentile(step_ms, 0.9), "ms");
  report_.Metric(&m, "setup_s", Percentile(setup_s, 0.5), "s");
  report_.Metric(&m, "peak_rss_mb", peak_rss, "MiB");
  report_.Metric(&m, "virtual_ms_per_step",
                 (fixture->trainer->virtual_seconds() - virtual0) * 1e3 / steps,
                 "sim_ms");
  report_.Metric(&m, "wire_bytes_per_step",
                 static_cast<double>(fixture->trainer->total_comm().wire_bytes -
                                     wire0) /
                     steps,
                 "bytes");
  report_.Metric(&m, "error_ratio",
                 static_cast<double>(failed_) / static_cast<double>(attempted_),
                 "ratio");

  std::cout << "checks:\n";
  report_.Check("train_calls", true,
                StrCat(attempted_, " Train() calls, none failed"));
  CheckTraining(*run, fixture.get());
  if (flags_.update_golden) {
    const Status written = UpdateGolden(*fixture, *run);
    report_.Check("update_golden", written.ok(), written.ToString());
  } else if (flags_.seed == kGoldenSeed && !flags_.smoke) {
    CheckGolden(*fixture, *run);
  }
  const std::string warmup_hash = fixture->warmup.hash;
  fixture.reset();

  {
    // The warm-up epoch again on a fresh serial trainer: results must not
    // depend on the thread count.
    StatusOr<std::unique_ptr<Fixture>> serial =
        SetUp(false, ExecutionContext::Serial());
    report_.Check("serial_replay",
                  serial.ok() && (*serial)->warmup.hash == warmup_hash,
                  serial.ok() ? StrCat("warm-up epoch on 1 thread hashes ",
                                       (*serial)->warmup.hash, ", on ",
                                       kThreads, " threads ", warmup_hash)
                              : serial.status().ToString());
  }

  if (flags_.traced) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.set_enabled(true);
    StatusOr<std::unique_ptr<Fixture>> traced = SetUp(true, execution);
    if (!traced.ok()) {
      report_.Check("traced_setup", false, traced.status().ToString());
    } else {
      // The first half of the untraced epochs (at least two) is enough
      // for the layer split and keeps traced runs short.
      const size_t traced_epochs =
          std::min(run->epochs.size(),
                   std::max<size_t>(2, (run->epochs.size() + 1) / 2));
      const int64_t retries0 = registry.CounterValue("comm/retries");
      StatusOr<TimedRun> traced_run =
          TrainTimed(traced->get(), static_cast<int>(traced_epochs));
      const int64_t retries = registry.CounterValue("comm/retries") - retries0;
      registry.set_enabled(false);
      bool same = traced_run.ok() &&
                  traced_run->epochs.size() == traced_epochs;
      for (size_t i = 0; same && i < traced_epochs; ++i) {
        same = traced_run->epochs[i].hash == run->epochs[i].hash;
      }
      report_.Check("traced_hash", same,
                    traced_run.ok()
                        ? StrCat("epoch ", traced_epochs, " hashes ",
                                 traced_run->epochs.back().hash,
                                 " traced and ",
                                 run->epochs[traced_epochs - 1].hash,
                                 " untraced")
                        : traced_run.status().ToString());
      if (traced_run.ok()) {
        ReportTraced(traced->get(), *traced_run, p50, retries);
      }
    }
  }

  *result = obs::JsonValue::Object();
  result->Set("workload", workload_.name);
  result->Set("seed", static_cast<int64_t>(flags_.seed));
  result->Set("correct", report_.all_ok() && failed_ == 0);
  result->Set("attempted", attempted_);
  result->Set("failed", failed_);
  result->Set("epochs", static_cast<int64_t>(run->epochs.size()));
  result->Set("steps", run->steps);
  result->Set("hash", run->epochs.back().hash);
  result->Set("test_accuracy", run->epochs.back().test_accuracy);
  result->Set("host", HostJson());
  result->Set("checks", report_.checks());
  result->Set("metrics", report_.metrics);
  if (flags_.traced) result->Set("per_layer", report_.per_layer);
  std::cout << result->Dump() << std::endl;
  return report_.all_ok() && failed_ == 0 ? 0 : 1;
}

// --- Several workloads -----------------------------------------------------

// Runs this binary with `args` in a child process, echoing its stdout, and
// returns its exit status and last stdout line.
int RunChild(const std::vector<std::string>& args, std::string* last_line) {
  std::cout.flush();
  int fds[2];
  if (pipe(fds) != 0) return 2;
  const pid_t pid = fork();
  if (pid < 0) return 2;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string pending;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    pending.append(buf, static_cast<size_t>(n));
    size_t newline = 0;
    while ((newline = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      std::cout << line << "\n";
      if (!line.empty()) *last_line = line;
    }
  }
  std::cout.flush();
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

// google-benchmark-shaped rows (one per workload, items_per_second =
// samples_per_s) so tools/obs/bench_gate can diff two runs.
Status WriteGateOut(const std::string& path,
                    const std::vector<obs::JsonValue>& results) {
  obs::JsonValue context = HostJson();
  context.Set("executable", "bench_e2e");
  context.Set("library_build_type", "release");
  obs::JsonValue rows = obs::JsonValue::Array();
  for (const obs::JsonValue& result : results) {
    const obs::JsonValue& metrics = result.At("metrics");
    const std::string name = StrCat("e2e/", result.At("workload").AsString());
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("name", name);
    row.Set("run_name", name);
    row.Set("run_type", "iteration");
    row.Set("repetitions", 1);
    row.Set("repetition_index", 0);
    row.Set("threads", kThreads);
    row.Set("iterations", result.At("steps").AsInt());
    row.Set("real_time", metrics.At("step_ms_p50").At("value").AsDouble());
    row.Set("cpu_time", metrics.At("step_ms_p50").At("value").AsDouble());
    row.Set("time_unit", "ms");
    row.Set("items_per_second",
            metrics.At("samples_per_s").At("value").AsDouble());
    rows.Append(std::move(row));
  }
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("context", std::move(context));
  doc.Set("benchmarks", std::move(rows));
  std::ofstream out(path);
  out << doc.Dump(2) << "\n";
  out.close();
  if (!out) return InternalError(StrCat("cannot write ", path));
  return OkStatus();
}

int RunAll(int argc, char** argv, const Flags& flags) {
  std::vector<obs::JsonValue> results;
  int exit_code = 0;
  for (const Workload& workload : Workloads()) {
    std::vector<std::string> args = {argv[0],
                                     StrCat("--workload=", workload.name)};
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--workload=", 0) != 0 && arg.rfind("--gate_out=", 0) != 0) {
        args.push_back(arg);
      }
    }
    std::string last_line;
    const int code = RunChild(args, &last_line);
    StatusOr<obs::JsonValue> result = obs::JsonValue::Parse(last_line);
    if (code != 0 || !result.ok() || !result->Has("metrics")) {
      std::cerr << "bench_e2e: workload " << workload.name << " exited "
                << code << "\n";
      exit_code = std::max(exit_code, code == 0 ? 1 : code);
      continue;
    }
    results.push_back(std::move(*result));
  }
  if (!flags.gate_out.empty() && !results.empty()) {
    const Status written = WriteGateOut(flags.gate_out, results);
    if (!written.ok()) {
      std::cerr << written << "\n";
      exit_code = std::max(exit_code, 1);
    }
  }
  obs::JsonValue summary = obs::JsonValue::Object();
  obs::JsonValue all = obs::JsonValue::Array();
  for (obs::JsonValue& result : results) all.Append(std::move(result));
  summary.Set("correct", exit_code == 0);
  summary.Set("workloads", std::move(all));
  std::cout << summary.Dump() << std::endl;
  return exit_code;
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::cerr << "bench_e2e: " << error << "\n";
    return 2;
  }
  // End-to-end numbers are measured with the library's own observability
  // off; any of these switches would instrument the untraced run.
  for (const char* name : {"LPSGD_OBS", "LPSGD_TRACE", "LPSGD_PROFILE",
                           "LPSGD_FLIGHT_RECORDER"}) {
    const char* value = std::getenv(name);
    if (value != nullptr && *value != '\0') {
      std::cerr << "bench_e2e: unset " << name
                << " (end-to-end metrics are measured with tracing off)\n";
      return 2;
    }
  }
  if (flags.workload == "all") return RunAll(argc, argv, flags);
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) {
    std::cerr << "bench_e2e: unknown workload " << flags.workload
              << " (conv_compute, fc_exchange, lstm_sparse_nccl, "
                 "fault_recovery, all)\n";
    return 2;
  }

  std::error_code ec;
  const std::filesystem::path root =
      flags.scratch_dir.empty() ? std::filesystem::temp_directory_path(ec)
                                : std::filesystem::path(flags.scratch_dir);
  const std::filesystem::path scratch =
      root / StrCat("bench_e2e.", getpid());
  std::filesystem::create_directories(scratch, ec);
  if (ec) {
    std::cerr << "bench_e2e: cannot create " << scratch << ": "
              << ec.message() << "\n";
    return 2;
  }
  obs::JsonValue result;
  int code = Runner(*workload, flags, scratch).Run(&result);
  std::filesystem::remove_all(scratch, ec);
  if (!flags.gate_out.empty() && code == 0) {
    const Status written = WriteGateOut(flags.gate_out, {result});
    if (!written.ok()) {
      std::cerr << written << "\n";
      code = 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace e2e
}  // namespace lpsgd

int main(int argc, char** argv) { return lpsgd::e2e::Main(argc, argv); }

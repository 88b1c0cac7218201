// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Grammar fuzz harness: arbitrary text through both user-facing parsers,
// CodecSpec::Parse (quant/codec.h) and FaultPlan::Parse
// (fault/fault_plan.h). Each parser may reject any input, but what it
// accepts must be usable:
//  * CodecSpec::Parse OK  =>  Create() is OK and Label() is not "unknown"
//    (a parsed spec never crashes or fails at codec construction);
//  * FaultPlan::Parse OK  =>  Parse(ToString()) is OK and gives the same
//    ToString() (the canonical form round-trips).
// A violation prints the input and aborts, so the fuzzer records it.
//
// Two build modes share FuzzOne():
//  * -DLPSGD_USE_LIBFUZZER (clang only): a libFuzzer entry point,
//    `cmake -DLPSGD_FUZZER=ON` + `spec_parse_fuzz corpus/`.
//  * default (any compiler, what CI's ctest runs): a standalone driver
//    that replays a built-in seed corpus — every codec family's grammar
//    and the fault plans of the fault-plan tests — then hammers FuzzOne
//    with seeded deterministic, grammar-aware mutations of those seeds
//    (`--runs N`, default 12000). `--write_seed_corpus <dir>` exports the
//    seeds for libFuzzer runs.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "base/statusor.h"
#include "fault/fault_plan.h"
#include "quant/codec.h"

namespace {

[[noreturn]] void Fail(const std::string& input, const std::string& what) {
  std::fprintf(stderr, "spec_parse_fuzz: input '%s': %s\n", input.c_str(),
               what.c_str());
  std::abort();
}

void CheckCodecSpec(const std::string& text) {
  const lpsgd::StatusOr<lpsgd::CodecSpec> spec =
      lpsgd::CodecSpec::Parse(text);
  if (!spec.ok()) return;
  const lpsgd::StatusOr<std::unique_ptr<lpsgd::GradientCodec>> codec =
      spec->Create();
  if (!codec.ok()) {
    Fail(text, "parsed but Create() failed: " + codec.status().ToString());
  }
  if (spec->Label() == "unknown") Fail(text, "parsed to an unknown label");
}

void CheckFaultPlan(const std::string& text) {
  const lpsgd::StatusOr<lpsgd::fault::FaultPlan> plan =
      lpsgd::fault::FaultPlan::Parse(text);
  if (!plan.ok()) return;
  const std::string canonical = plan->ToString();
  const lpsgd::StatusOr<lpsgd::fault::FaultPlan> reparsed =
      lpsgd::fault::FaultPlan::Parse(canonical);
  if (!reparsed.ok()) {
    Fail(text, "canonical form '" + canonical +
                   "' does not parse: " + reparsed.status().ToString());
  }
  if (reparsed->ToString() != canonical) {
    Fail(text, "canonical form '" + canonical + "' re-prints as '" +
                   reparsed->ToString() + "'");
  }
}

// The single input-processing function both build modes exercise: the
// whole input is one candidate string for each grammar.
void FuzzOne(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  CheckCodecSpec(text);
  CheckFaultPlan(text);
}

}  // namespace

#if defined(LPSGD_USE_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#else  // standalone deterministic driver

#include <fstream>
#include <iterator>
#include <random>
#include <vector>

namespace {

// Every codec family's grammar (positional and key=value forms) and every
// fault plan the fault-plan tests use.
const char* const kSeeds[] = {
    // Codec specs.
    "32bit", "fp32", "1bit", "1bitsgd", "1bit*", "1bitsgd*", "1bit*:128",
    "1bit*:bucket=64", "q2", "q4", "q8:64", "q16", "q4:bucket=512",
    "q4:bucket=512,norm=l2,levels=sym", "q8:norm=max,levels=sm", "aq4",
    "aq8:256", "aq2:bucket=128", "nuq4", "nuq4:256", "nuq8:bucket=1024",
    "ecq4", "ecq8:1024", "ecq2:bucket=32", "terngrad", "tern", "tern:256",
    "terngrad:bucket=1024,clip=2.5", "terngrad:clip=2", "topk:0.01",
    "topk:1.0", "topk:density=0.25",
    // Fault plans.
    "straggle@3:0.5;fail@5x2;corrupt@7;crash@9:1;seed=42", "fail@0",
    "corrupt@12x3", "straggle@1:0.25;straggle@2:0.25", "crash@100:7",
    "fail@4x1", "fail@4;seed=9", "fail@2;crash@4:0;corrupt@6;crash@8:1;seed=5",
    "torn@4;shortwrite@6;enospc@8x3;kill@10", "shortwrite@0", "enospc@8",
    "enospc@8x3", "kill@10", "torn@4;shortwrite@6;enospc@8x3;kill@10;seed=9",
    "fail@2x2;torn@4;crash@6:1;kill@8"};

// Tokens the mutator splices in: the grammars' separators, numeric edge
// cases (non-finite, out of range, signed, exponent and hex forms) and
// every key.
const char* const kTokens[] = {
    ":", ",", "=", "@", ";", "x", "*", "-", "+", ".", "0", "1", "2", "9",
    "nan", "inf", "-inf", "1e308", "1e-320", "-0", "0x1p3", " 7",
    "2147483647", "2147483648", "4294967295", "9223372036854775807",
    "99999999999999999999", "bucket=", "norm=", "levels=", "density=",
    "clip=", "seed=", "l2", "sym", "q", "aq", "nuq", "ecq", "topk", "tern",
    "fail@", "straggle@", "crash@", "corrupt@", "enospc@", "kill@"};

std::vector<std::string> BuildSeedInputs() {
  return std::vector<std::string>(std::begin(kSeeds), std::end(kSeeds));
}

void Mutate(std::mt19937_64* rng, const std::vector<std::string>& seeds,
            std::string* input) {
  const int ops = 1 + static_cast<int>((*rng)() % 4);
  for (int op = 0; op < ops; ++op) {
    const size_t at = input->empty() ? 0 : (*rng)() % (input->size() + 1);
    switch ((*rng)() % 6) {
      case 0:  // insert a grammar token
        input->insert(at, kTokens[(*rng)() % std::size(kTokens)]);
        break;
      case 1:  // replace the rest after a separator with a token
        if (!input->empty()) {
          const size_t cut = input->find_first_of(":,=@;x", at);
          if (cut != std::string::npos) {
            input->replace(cut + 1, std::string::npos,
                           kTokens[(*rng)() % std::size(kTokens)]);
          }
        }
        break;
      case 2:  // delete a span
        if (!input->empty()) {
          input->erase(at == input->size() ? 0 : at, 1 + (*rng)() % 4);
        }
        break;
      case 3:  // rewrite one byte
        if (!input->empty()) {
          (*input)[(*rng)() % input->size()] =
              static_cast<char>((*rng)() % 128);
        }
        break;
      case 4: {  // splice the tail of another seed
        const std::string& other = seeds[(*rng)() % seeds.size()];
        input->insert(at, other.substr((*rng)() % (other.size() + 1)));
        break;
      }
      default:  // join with another seed
        *input += ((*rng)() % 2 == 0 ? ";" : ",") +
                  seeds[(*rng)() % seeds.size()];
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int64_t runs = 12000;
  std::string corpus_dir;
  std::string write_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--runs" && i + 1 < argc) {
      runs = std::atoll(argv[++i]);
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (arg == "--write_seed_corpus" && i + 1 < argc) {
      write_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: spec_parse_fuzz [--runs N] [--corpus dir] "
                   "[--write_seed_corpus dir]\n");
      return 2;
    }
  }

  std::vector<std::string> seeds = BuildSeedInputs();
  if (!write_dir.empty()) {
    for (size_t i = 0; i < seeds.size(); ++i) {
      const std::string path =
          write_dir + "/seed_" + std::to_string(i) + ".txt";
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      out << seeds[i];
    }
    std::printf("spec_parse_fuzz: wrote %zu seed(s) to %s\n", seeds.size(),
                write_dir.c_str());
    return 0;
  }
  if (!corpus_dir.empty()) {
    // Extra corpus entries are replayed verbatim alongside the built-ins.
    for (size_t i = 0;; ++i) {
      std::ifstream in(corpus_dir + "/seed_" + std::to_string(i) + ".txt",
                       std::ios::binary);
      if (!in) break;
      seeds.emplace_back(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
  }

  int64_t executed = 0;
  for (const std::string& seed : seeds) {
    FuzzOne(reinterpret_cast<const uint8_t*>(seed.data()), seed.size());
    ++executed;
  }
  std::mt19937_64 rng(0x5bec5eed);
  while (executed < runs) {
    std::string input = seeds[rng() % seeds.size()];
    Mutate(&rng, seeds, &input);
    FuzzOne(reinterpret_cast<const uint8_t*>(input.data()), input.size());
    ++executed;
  }
  std::printf("spec_parse_fuzz: %lld input(s) executed, no violations\n",
              static_cast<long long>(executed));
  return 0;
}

#endif  // LPSGD_USE_LIBFUZZER

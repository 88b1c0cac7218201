// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Decode-path fuzz harness: arbitrary bytes through every registered
// codec's Decode (and DecodeSparse where supported) plus the BitReader /
// UnpackIndexRun primitives underneath them. The contract under test is
// the one DESIGN.md pins for the wire format: a mis-sized, truncated, or
// tampered blob must surface as a Status error (DataLoss) with the output
// buffers untouched — never a crash, hang, or out-of-bounds access (the
// harness is run under ASan+UBSan in CI).
//
// Two build modes share FuzzOne():
//  * -DLPSGD_USE_LIBFUZZER (clang only): a libFuzzer entry point,
//    `cmake -DLPSGD_FUZZER=ON` + `codec_decode_fuzz corpus/`.
//  * default (any compiler, what CI's ctest runs): a standalone driver
//    that replays the built-in seed corpus — valid wire blobs encoded
//    in-process — and then hammers FuzzOne with seeded deterministic
//    mutations of those seeds (`--runs N`, default 12000).
//    `--write_seed_corpus <dir>` exports the seeds for libFuzzer runs.
//
// Input layout: data[0] picks the codec spec, data[1]/data[2] the shape
// (bounded), data[3] the bit width for the primitive checks, data[3:] is
// the wire blob.
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/bit_packing.h"
#include "base/status.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/shape.h"

namespace {

std::vector<lpsgd::CodecSpec> FuzzSpecs() {
  return {lpsgd::FullPrecisionSpec(),
          lpsgd::OneBitSgdSpec(),
          lpsgd::OneBitSgdReshapedSpec(7),
          lpsgd::OneBitSgdReshapedSpec(64),
          lpsgd::QsgdSpec(2),
          lpsgd::QsgdSpec(4),
          lpsgd::QsgdSpec(8),
          lpsgd::QsgdSpec(16),
          lpsgd::AdaptiveQsgdSpec(4),
          lpsgd::TernGradSpec(),
          lpsgd::TernGradSpec(64, 2.5),
          lpsgd::NuqsgdSpec(4),
          lpsgd::EcqSgdSpec(4),
          lpsgd::TopKSpec(0.1)};
}

const std::vector<std::unique_ptr<lpsgd::GradientCodec>>& FuzzCodecs() {
  static const auto* codecs = [] {
    auto* built = new std::vector<std::unique_ptr<lpsgd::GradientCodec>>();
    for (const lpsgd::CodecSpec& spec : FuzzSpecs()) {
      lpsgd::StatusOr<std::unique_ptr<lpsgd::GradientCodec>> codec =
          spec.Create();
      if (codec.ok()) built->push_back(std::move(*codec));
    }
    return built;
  }();
  return *codecs;
}

lpsgd::Shape ShapeFromHeader(const uint8_t* data) {
  return lpsgd::Shape({1 + data[1] % 64, 1 + data[2] % 64});
}

// The single input-processing function both build modes exercise. Must
// never crash, whatever the bytes.
void FuzzOne(const uint8_t* data, size_t size) {
  if (size < 4) return;
  const auto& codecs = FuzzCodecs();
  if (codecs.empty()) return;
  const lpsgd::GradientCodec& codec =
      *codecs[data[0] % codecs.size()];
  const lpsgd::Shape shape = ShapeFromHeader(data);
  const int64_t n = shape.element_count();

  const uint8_t* blob = data + 4;
  const int64_t blob_size = static_cast<int64_t>(size) - 4;

  lpsgd::CodecWorkspace workspace;
  std::vector<float> out(static_cast<size_t>(n), 0.0F);
  lpsgd::Status dense = codec.Decode(blob, blob_size, shape, &workspace,
                                     out.data());
  (void)dense;  // ok for a valid blob, an error otherwise — never a crash

  const int64_t sparse_count = codec.SparseCount(shape);
  if (sparse_count > 0) {
    std::vector<uint32_t> indices(static_cast<size_t>(sparse_count), 0);
    std::vector<float> values(static_cast<size_t>(sparse_count), 0.0F);
    lpsgd::Status sparse =
        codec.DecodeSparse(blob, blob_size, shape, &workspace,
                           indices.data(), values.data());
    (void)sparse;
  }

  // The bit-stream primitives under the codecs, bounded so every word the
  // reader loads exists: reading `count` fields at `bits` per value
  // consumes ceil(count / (32 / bits)) words.
  const size_t word_count = (size - 4) / 4;
  if (word_count > 0) {
    std::vector<uint32_t> words(word_count, 0);
    std::memcpy(words.data(), blob, word_count * 4);

    const int bits = 1 + data[3] % 32;
    const int64_t per_word = 32 / bits;
    const int64_t max_fields =
        per_word * static_cast<int64_t>(word_count);
    lpsgd::BitReader reader(words.data(), bits);
    uint32_t sink = 0;
    const int64_t fields = max_fields < 1024 ? max_fields : 1024;
    for (int64_t i = 0; i < fields; ++i) sink ^= reader.Next();

    // UnpackIndexRun on arbitrary words must reject malformed runs
    // (out-of-range or non-increasing indices) rather than scatter from
    // them.
    const int64_t element_count = 1 + (data[1] << 8 | data[2]);
    const int width = lpsgd::IndexBitWidth(element_count);
    const int64_t idx_per_word = 32 / width;
    int64_t count = 1 + data[3] % 64;
    if (count > idx_per_word * static_cast<int64_t>(word_count)) {
      count = idx_per_word * static_cast<int64_t>(word_count);
    }
    if (count > 0) {
      std::vector<uint32_t> indices(static_cast<size_t>(count), 0);
      const bool valid = lpsgd::UnpackIndexRun(words.data(), count,
                                               element_count,
                                               indices.data());
      if (valid) sink ^= indices.back();
    }
    // Defeat dead-code elimination of the read loops.
    volatile uint32_t keep = sink;
    (void)keep;
  }
}

}  // namespace

#if defined(LPSGD_USE_LIBFUZZER)

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#else  // standalone deterministic driver

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace {

// Golden seeds: for every codec, a correctly-sized valid wire blob (header
// + Encode output) so mutations start from deep inside the accept path
// (checksum-valid, size-valid) instead of dying at the size check.
std::vector<std::vector<uint8_t>> BuildSeedInputs() {
  lpsgd::CodecWorkspace workspace;
  std::vector<std::vector<uint8_t>> seeds;
  std::mt19937 gradient_rng(0x5eed);
  std::normal_distribution<float> normal(0.0F, 1.0F);
  const auto& codecs = FuzzCodecs();
  for (size_t ci = 0; ci < codecs.size(); ++ci) {
    std::vector<uint8_t> input = {static_cast<uint8_t>(ci), 5, 7, 13};
    const lpsgd::Shape shape = ShapeFromHeader(input.data());
    std::vector<float> grad(static_cast<size_t>(shape.element_count()));
    for (float& g : grad) g = normal(gradient_rng);
    std::vector<float> error(grad.size(), 0.0F);
    std::vector<uint8_t> blob;
    codecs[ci]->Encode(grad.data(), shape, /*stochastic_tag=*/ci, &error,
                       &workspace, &blob);
    input.insert(input.end(), blob.begin(), blob.end());
    seeds.push_back(std::move(input));
  }
  // A few degenerate inputs: empty blob, header-only, single byte.
  seeds.push_back({0, 1, 1, 0});
  seeds.push_back({7});
  return seeds;
}

void Mutate(std::mt19937_64* rng, std::vector<uint8_t>* input) {
  const int ops = 1 + static_cast<int>((*rng)() % 8);
  for (int op = 0; op < ops; ++op) {
    switch ((*rng)() % 6) {
      case 0:  // flip one bit
        if (!input->empty()) {
          (*input)[(*rng)() % input->size()] ^=
              static_cast<uint8_t>(1U << ((*rng)() % 8));
        }
        break;
      case 1:  // rewrite one byte
        if (!input->empty()) {
          (*input)[(*rng)() % input->size()] =
              static_cast<uint8_t>((*rng)());
        }
        break;
      case 2:  // truncate
        if (!input->empty()) {
          input->resize((*rng)() % input->size());
        }
        break;
      case 3: {  // extend with junk
        const size_t extra = (*rng)() % 64;
        for (size_t i = 0; i < extra; ++i) {
          input->push_back(static_cast<uint8_t>((*rng)()));
        }
        break;
      }
      case 4:  // zero a span
        if (!input->empty()) {
          size_t begin = (*rng)() % input->size();
          size_t len = 1 + (*rng)() % 16;
          for (size_t i = begin; i < input->size() && i < begin + len; ++i) {
            (*input)[i] = 0;
          }
        }
        break;
      default:  // duplicate a span onto another position
        if (input->size() > 8) {
          const size_t from = (*rng)() % (input->size() - 4);
          const size_t to = (*rng)() % (input->size() - 4);
          for (size_t i = 0; i < 4; ++i) (*input)[to + i] = (*input)[from + i];
        }
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
                   "usage: codec_decode_fuzz [--runs N] [--corpus dir] "
                   "[--write_seed_corpus dir]\n");
      return 2;
    }
  }

  std::vector<std::vector<uint8_t>> seeds = BuildSeedInputs();
  if (!write_dir.empty()) {
    for (size_t i = 0; i < seeds.size(); ++i) {
      const std::string path =
          write_dir + "/seed_" + std::to_string(i) + ".bin";
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      out.write(reinterpret_cast<const char*>(seeds[i].data()),
                static_cast<std::streamsize>(seeds[i].size()));
    }
    std::printf("codec_decode_fuzz: wrote %zu seed(s) to %s\n",
                seeds.size(), write_dir.c_str());
    return 0;
  }
  if (!corpus_dir.empty()) {
    // Extra corpus entries are replayed verbatim alongside the built-ins.
    for (size_t i = 0;; ++i) {
      std::ifstream in(corpus_dir + "/seed_" + std::to_string(i) + ".bin",
                       std::ios::binary);
      if (!in) break;
      seeds.emplace_back(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
  }

  int64_t executed = 0;
  for (const std::vector<uint8_t>& seed : seeds) {
    FuzzOne(seed.data(), seed.size());
    ++executed;
  }
  std::mt19937_64 rng(0xc0dec0de);
  while (executed < runs) {
    std::vector<uint8_t> input = seeds[rng() % seeds.size()];
    Mutate(&rng, &input);
    FuzzOne(input.data(), input.size());
    ++executed;
  }
  std::printf("codec_decode_fuzz: %lld input(s) executed, no crashes\n",
              static_cast<long long>(executed));
  return 0;
}

#endif  // LPSGD_USE_LIBFUZZER

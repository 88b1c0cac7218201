// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "ckpt/format.h"

#include <cstring>

#include "base/bit_packing.h"
#include "base/strings.h"

namespace lpsgd {
namespace ckpt {
namespace {

constexpr uint32_t kMagic = 0x4c50434bu;  // "LPCK"
constexpr uint32_t kVersion = 1;

// Section tags (v1 writes all six, exactly once each).
constexpr uint32_t kTagMeta = 1;
constexpr uint32_t kTagParams = 2;
constexpr uint32_t kTagOptimizer = 3;
constexpr uint32_t kTagResiduals = 4;
constexpr uint32_t kTagAggregator = 5;
constexpr uint32_t kTagRng = 6;
constexpr int kSectionCount = 6;

// Hard caps on every count field, checked before any buffer is sized.
// These are far above anything the trainer writes but small enough that a
// hostile file cannot make the reader allocate unboundedly.
constexpr uint32_t kMaxNameLength = 4096;
constexpr uint32_t kMaxDims = 16;
constexpr uint32_t kMaxRanks = 4096;
constexpr uint32_t kMaxStreams = 64;

void AppendPod(std::string* out, const void* value, size_t size) {
  out->append(static_cast<const char*>(value), size);
}

template <typename T>
void Append(std::string* out, T value) {
  AppendPod(out, &value, sizeof(value));
}

void AppendString(std::string* out, const std::string& value) {
  Append<uint32_t>(out, static_cast<uint32_t>(value.size()));
  out->append(value);
}

void AppendFloats(std::string* out, const std::vector<float>& values) {
  Append<uint64_t>(out, static_cast<uint64_t>(values.size()));
  AppendPod(out, values.data(), values.size() * sizeof(float));
}

void AppendTensors(std::string* out,
                   const std::vector<TensorEntry>& tensors) {
  Append<uint32_t>(out, static_cast<uint32_t>(tensors.size()));
  for (const TensorEntry& tensor : tensors) {
    AppendString(out, tensor.name);
    Append<uint32_t>(out, static_cast<uint32_t>(tensor.dims.size()));
    for (int64_t dim : tensor.dims) Append<int64_t>(out, dim);
    AppendFloats(out, tensor.data);
  }
}

void AppendSection(std::string* out, uint32_t tag,
                   const std::string& payload) {
  Append<uint32_t>(out, tag);
  Append<uint64_t>(out, static_cast<uint64_t>(payload.size()));
  out->append(payload);
  Append<uint32_t>(out,
                   Fnv1a32(reinterpret_cast<const uint8_t*>(payload.data()),
                           static_cast<int64_t>(payload.size())));
}

// Bounds-checked cursor over the raw bytes: every read either fully
// succeeds or leaves `ok` false, and nothing is ever read past `size`.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t offset = 0;

  size_t remaining() const { return size - offset; }

  bool ReadBytes(void* out, size_t count) {
    if (count > remaining()) return false;
    // An empty vector's data() may be null, and memcpy requires non-null
    // pointers even for a zero count.
    if (count > 0) std::memcpy(out, data + offset, count);
    offset += count;
    return true;
  }

  template <typename T>
  bool Read(T* out) {
    return ReadBytes(out, sizeof(T));
  }

  bool ReadString(std::string* out, uint32_t max_length) {
    uint32_t length = 0;
    if (!Read(&length) || length > max_length || length > remaining()) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data + offset), length);
    offset += length;
    return true;
  }

  bool ReadFloats(std::vector<float>* out) {
    uint64_t count = 0;
    if (!Read(&count) || count > remaining() / sizeof(float)) return false;
    out->resize(static_cast<size_t>(count));
    return ReadBytes(out->data(), static_cast<size_t>(count) * sizeof(float));
  }
};

Status Corrupt(const char* what) {
  return DataLossError(StrCat("corrupt checkpoint: ", what));
}

bool ParseTensors(Reader* reader, std::vector<TensorEntry>* out) {
  uint32_t count = 0;
  if (!reader->Read(&count)) return false;
  // Each tensor costs at least 4 (name len) + 4 (ndim) + 8 (value count)
  // bytes on the wire, so `count` is bounded by the remaining payload.
  if (count > reader->remaining() / 16) return false;
  out->resize(count);
  for (TensorEntry& tensor : *out) {
    if (!reader->ReadString(&tensor.name, kMaxNameLength)) return false;
    uint32_t ndim = 0;
    if (!reader->Read(&ndim) || ndim > kMaxDims) return false;
    tensor.dims.resize(ndim);
    int64_t elements = 1;
    for (int64_t& dim : tensor.dims) {
      if (!reader->Read(&dim) || dim < 0 || dim > (int64_t{1} << 32)) {
        return false;
      }
      // Overflow-safe running product with a generous absolute cap.
      if (dim != 0 && elements > (int64_t{1} << 33) / dim) return false;
      elements *= dim;
    }
    if (!reader->ReadFloats(&tensor.data)) return false;
    if (static_cast<int64_t>(tensor.data.size()) != elements) return false;
  }
  return true;
}

Status ParseMeta(Reader reader, TrainerState* state) {
  if (!reader.Read(&state->seed) ||
      !reader.ReadString(&state->codec, kMaxNameLength) ||
      !reader.Read(&state->rank_count) || !reader.Read(&state->iteration) ||
      !reader.Read(&state->epochs_completed) ||
      !reader.Read(&state->epoch_batch_cursor) ||
      !reader.Read(&state->epoch_loss_sum) ||
      !reader.Read(&state->epoch_correct) ||
      !reader.Read(&state->epoch_samples) ||
      !reader.Read(&state->virtual_seconds)) {
    return Corrupt("truncated meta section");
  }
  if (state->rank_count < 1 ||
      state->rank_count > static_cast<int32_t>(kMaxRanks)) {
    return Corrupt("rank count out of range");
  }
  if (state->iteration < 0 || state->epochs_completed < 0 ||
      state->epoch_batch_cursor < 0 || state->epoch_correct < 0 ||
      state->epoch_samples < 0) {
    return Corrupt("negative counter in meta section");
  }
  if (reader.remaining() != 0) return Corrupt("meta section has trailing bytes");
  return OkStatus();
}

Status ParseTensorSection(Reader reader, const char* what,
                          std::vector<TensorEntry>* out) {
  if (!ParseTensors(&reader, out)) {
    return Corrupt(what);
  }
  if (reader.remaining() != 0) return Corrupt(what);
  return OkStatus();
}

Status ParseResiduals(Reader reader, TrainerState* state) {
  uint32_t rank_count = 0;
  if (!reader.Read(&rank_count) || rank_count > kMaxRanks) {
    return Corrupt("residual rank count");
  }
  state->residuals.resize(rank_count);
  uint32_t matrix_count = 0;
  for (uint32_t r = 0; r < rank_count; ++r) {
    uint32_t count = 0;
    if (!reader.Read(&count) || count > reader.remaining() / 8) {
      return Corrupt("residual matrix count");
    }
    if (r == 0) {
      matrix_count = count;
    } else if (count != matrix_count) {
      return Corrupt("ragged residual matrix counts");
    }
    state->residuals[r].resize(count);
    for (std::vector<float>& residual : state->residuals[r]) {
      if (!reader.ReadFloats(&residual)) {
        return Corrupt("truncated residual data");
      }
    }
  }
  if (reader.remaining() != 0) {
    return Corrupt("residual section has trailing bytes");
  }
  return OkStatus();
}

Status ParseAggregator(Reader reader, TrainerState* state) {
  uint32_t matrix_count = 0;
  if (!reader.Read(&matrix_count) ||
      matrix_count > reader.remaining() / 8) {
    return Corrupt("aggregator matrix count");
  }
  state->aggregator_state.resize(matrix_count);
  for (std::vector<float>& entry : state->aggregator_state) {
    if (!reader.ReadFloats(&entry)) {
      return Corrupt("truncated aggregator state");
    }
  }
  if (reader.remaining() != 0) {
    return Corrupt("aggregator section has trailing bytes");
  }
  return OkStatus();
}

Status ParseRng(Reader reader, TrainerState* state) {
  uint32_t count = 0;
  if (!reader.Read(&count) || count > kMaxStreams) {
    return Corrupt("rng stream count");
  }
  state->rng_streams.resize(count);
  for (RngStreamEntry& stream : state->rng_streams) {
    if (!reader.ReadString(&stream.name, kMaxNameLength) ||
        !reader.Read(&stream.seed)) {
      return Corrupt("truncated rng stream");
    }
  }
  if (reader.remaining() != 0) {
    return Corrupt("rng section has trailing bytes");
  }
  return OkStatus();
}

}  // namespace

std::string Serialize(const TrainerState& state) {
  std::string meta;
  Append<uint64_t>(&meta, state.seed);
  AppendString(&meta, state.codec);
  Append<int32_t>(&meta, state.rank_count);
  Append<int64_t>(&meta, state.iteration);
  Append<int32_t>(&meta, state.epochs_completed);
  Append<int64_t>(&meta, state.epoch_batch_cursor);
  Append<double>(&meta, state.epoch_loss_sum);
  Append<int64_t>(&meta, state.epoch_correct);
  Append<int64_t>(&meta, state.epoch_samples);
  Append<double>(&meta, state.virtual_seconds);

  std::string params;
  AppendTensors(&params, state.params);
  std::string optimizer;
  AppendTensors(&optimizer, state.optimizer);

  std::string residuals;
  Append<uint32_t>(&residuals, static_cast<uint32_t>(state.residuals.size()));
  for (const auto& rank : state.residuals) {
    Append<uint32_t>(&residuals, static_cast<uint32_t>(rank.size()));
    for (const std::vector<float>& residual : rank) {
      AppendFloats(&residuals, residual);
    }
  }

  std::string aggregator;
  Append<uint32_t>(&aggregator,
                   static_cast<uint32_t>(state.aggregator_state.size()));
  for (const std::vector<float>& entry : state.aggregator_state) {
    AppendFloats(&aggregator, entry);
  }

  std::string rng;
  Append<uint32_t>(&rng, static_cast<uint32_t>(state.rng_streams.size()));
  for (const RngStreamEntry& stream : state.rng_streams) {
    AppendString(&rng, stream.name);
    Append<uint64_t>(&rng, stream.seed);
  }

  std::string out;
  Append<uint32_t>(&out, kMagic);
  Append<uint32_t>(&out, kVersion);
  Append<uint32_t>(&out, kSectionCount);
  Append<uint32_t>(&out,
                   Fnv1a32(reinterpret_cast<const uint8_t*>(out.data()),
                           static_cast<int64_t>(out.size())));
  AppendSection(&out, kTagMeta, meta);
  AppendSection(&out, kTagParams, params);
  AppendSection(&out, kTagOptimizer, optimizer);
  AppendSection(&out, kTagResiduals, residuals);
  AppendSection(&out, kTagAggregator, aggregator);
  AppendSection(&out, kTagRng, rng);
  return out;
}

StatusOr<TrainerState> Deserialize(const uint8_t* data, size_t size) {
  Reader reader{data, size};
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint32_t header_fnv = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&section_count) || !reader.Read(&header_fnv)) {
    return Corrupt("truncated header");
  }
  if (magic != kMagic) return Corrupt("bad magic");
  if (version != kVersion) return Corrupt("unsupported version");
  if (section_count != kSectionCount) return Corrupt("bad section count");
  if (header_fnv != Fnv1a32(data, 12)) return Corrupt("header integrity word");

  TrainerState state;
  bool seen[kSectionCount + 1] = {false};
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t tag = 0;
    uint64_t length = 0;
    if (!reader.Read(&tag) || !reader.Read(&length)) {
      return Corrupt("truncated section header");
    }
    if (tag < kTagMeta || tag > kTagRng) return Corrupt("unknown section tag");
    if (seen[tag]) return Corrupt("duplicate section");
    seen[tag] = true;
    if (length > reader.remaining() ||
        reader.remaining() - static_cast<size_t>(length) < sizeof(uint32_t)) {
      return Corrupt("truncated section payload");
    }
    const uint8_t* payload = data + reader.offset;
    reader.offset += static_cast<size_t>(length);
    uint32_t payload_fnv = 0;
    if (!reader.Read(&payload_fnv)) return Corrupt("truncated integrity word");
    if (payload_fnv != Fnv1a32(payload, static_cast<int64_t>(length))) {
      return Corrupt("section integrity word");
    }
    Reader section{payload, static_cast<size_t>(length)};
    switch (tag) {
      case kTagMeta:
        LPSGD_RETURN_IF_ERROR(ParseMeta(section, &state));
        break;
      case kTagParams:
        LPSGD_RETURN_IF_ERROR(
            ParseTensorSection(section, "params section", &state.params));
        break;
      case kTagOptimizer:
        LPSGD_RETURN_IF_ERROR(ParseTensorSection(
            section, "optimizer section", &state.optimizer));
        break;
      case kTagResiduals:
        LPSGD_RETURN_IF_ERROR(ParseResiduals(section, &state));
        break;
      case kTagAggregator:
        LPSGD_RETURN_IF_ERROR(ParseAggregator(section, &state));
        break;
      case kTagRng:
        LPSGD_RETURN_IF_ERROR(ParseRng(section, &state));
        break;
      default:
        return Corrupt("unknown section tag");
    }
  }
  if (reader.remaining() != 0) return Corrupt("trailing bytes");
  for (uint32_t tag = kTagMeta; tag <= kTagRng; ++tag) {
    if (!seen[tag]) return Corrupt("missing section");
  }
  return state;
}

StatusOr<TrainerState> Deserialize(const std::string& bytes) {
  return Deserialize(reinterpret_cast<const uint8_t*>(bytes.data()),
                     bytes.size());
}

}  // namespace ckpt
}  // namespace lpsgd

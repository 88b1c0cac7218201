// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_QUANT_WORKSPACE_H_
#define LPSGD_QUANT_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/span.h"

namespace lpsgd {

// Reusable scratch for one codec Encode/Decode call chain. The buffers grow
// to the largest matrix they have seen and are never shrunk, so a caller
// that keeps one workspace per thread (the aggregators keep one per
// thread-pool slot, see ThreadPool::CurrentSlot()) reaches a steady state
// with zero heap allocations on the codec path — the property
// tests/quant/workspace_test.cc asserts.
//
// A workspace carries no cross-call state: every codec fully overwrites
// whatever region of a buffer it reads, so workspaces may be shared across
// codecs, matrices, and iterations freely (but not across threads — a
// workspace is single-threaded scratch).
struct CodecWorkspace {
  // Error-feedback stage (GradientCodec::EncodeRange): the corrected range
  // c = grad + carried error, which the codec then quantizes.
  std::vector<float> ef_corrected;
  // TopK decode: the sparse values staged for validation.
  std::vector<float> corrected;
  // TopK encode: the radix select's candidates, the magnitude keys that
  // share the threshold's first digit.
  std::vector<uint32_t> candidates;
  // AdaptiveQSGD: subsampled normalized magnitudes for quantile placement.
  std::vector<float> sample;
  // AdaptiveQSGD: level table under construction.
  std::vector<float> levels;
  // AdaptiveQSGD: coordinate-descent trial placement.
  std::vector<float> trial;
  // TopK encode: the kept indices in index order, before packing.
  // TopK dense decode: unpacked component indices staged for validation
  // before `out` is touched.
  std::vector<uint32_t> sparse_indices;
  // Caller-side scratch blob for encode-then-decode round trips (the NCCL
  // ring's sparse allgather).
  std::vector<uint8_t> blob;
  // Per-slot profile scratch: codec Encode/Decode calls and the
  // aggregators' hot loops accumulate phase spans here (fixed POD arrays,
  // so the hot path stays allocation-free); the owning aggregator merges
  // and clears it serially after each exchange (obs/span.h).
  obs::PhaseTimes phases;
};

namespace quant_internal {

// Bumps the quant/workspace/grow_events and quant/workspace/grown_bytes
// counters; no-op while metrics are disabled. Workspace growth is expected
// during the first iterations (warmup) and must stop afterwards — the
// steady-state invariant the aggregator allocation test watches.
void RecordWorkspaceGrowth(int64_t bytes);

// Resizes `buf` to `count` elements, recording growth when the resize has
// to allocate, and returns the data pointer. In steady state (capacity
// already sufficient) this never touches the heap.
template <typename T>
T* EnsureSize(std::vector<T>* buf, size_t count) {
  if (buf->capacity() < count) {
    RecordWorkspaceGrowth(
        static_cast<int64_t>((count - buf->capacity()) * sizeof(T)));
  }
  // Grows once per shape; quant_workspace_test's allocation counter checks
  // that a steady-state exchange never grows.
  buf->resize(count);  // lpsgd-lint: allow(hot-path-alloc) grow-once contract
  return buf->data();
}

}  // namespace quant_internal

}  // namespace lpsgd

#endif  // LPSGD_QUANT_WORKSPACE_H_

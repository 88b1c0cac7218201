// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Allocation-regression tests for the codec workspace design (DESIGN.md
// "Hot-path kernels and workspaces"): after warmup, Encode/Decode through a
// CodecWorkspace must never touch the heap, and the MPI aggregator's
// persistent exchange buffers must stop growing. This test overrides the
// global allocator to count allocations, so it lives in its own binary
// (quant_workspace_test) and must not be merged into quant_test.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "comm/allreduce.h"
#include "comm/mpi_reduce_bcast.h"
#include "machine/specs.h"
#include "obs/metrics.h"
#include "quant/codec.h"
#include "quant/workspace.h"
#include "tensor/shape.h"

namespace {

// Allocation counting is armed only around the exact calls under test, so
// gtest bookkeeping between assertions is not counted.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};

}  // namespace

// noinline keeps the replaced operators out of callers, so the optimizer
// cannot pair an inlined free() against what it believes is the built-in
// allocator (-Wmismatched-new-delete) — and every allocation goes through
// the counter.
__attribute__((noinline)) void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}

namespace lpsgd {
namespace {

struct CodecCase {
  const char* name;
  CodecSpec spec;
};

CodecSpec QsgdWith(QsgdNorm norm, QsgdLevelScheme levels) {
  CodecSpec spec = QsgdSpec(4);
  spec.bucket_size = 512;
  spec.norm = norm;
  spec.levels = levels;
  return spec;
}

std::vector<CodecCase> AllCodecCases() {
  return {
      {"fp32", FullPrecisionSpec()},
      {"qsgd4", QsgdWith(QsgdNorm::kMax, QsgdLevelScheme::kSignMagnitude)},
      {"qsgd4_l2_sym", QsgdWith(QsgdNorm::kL2, QsgdLevelScheme::kSymmetric)},
      {"aqsgd4", AdaptiveQsgdSpec(4)},
      {"one_bit_stock", OneBitSgdSpec()},
      {"one_bit_star", OneBitSgdReshapedSpec(64)},
      {"topk_25pct", TopKSpec(0.25)},
      {"terngrad", TernGradSpec()},
      {"terngrad_clip", TernGradSpec(256, 2.5)},
      {"nuq4", NuqsgdSpec(4)},
      {"ecq4", EcqSgdSpec(4)},
  };
}

std::vector<float> TestGradient(int64_t n, uint64_t seed) {
  std::vector<float> grad(static_cast<size_t>(n));
  Rng rng(seed);
  for (auto& g : grad) {
    g = static_cast<float>(rng.NextGaussian());
  }
  return grad;
}

// Tentpole invariant: once the workspace (and the caller's blob) have grown
// to the matrix size, further Encode/Decode rounds allocate nothing — for
// every codec, including the stochastic and error-feedback ones.
TEST(WorkspaceAllocationTest, CodecPathAllocatesNothingAfterWarmup) {
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);  // metric mutation is not part of the path

  const int64_t n = 4096;
  const Shape shape({64, 64});
  const std::vector<float> grad = TestGradient(n, 0xa110cULL);

  for (const CodecCase& c : AllCodecCases()) {
    SCOPED_TRACE(c.name);
    auto codec = c.spec.Create();
    ASSERT_TRUE(codec.ok());
    std::vector<float> error(static_cast<size_t>(n), 0.0f);
    std::vector<float>* error_ptr =
        (*codec)->UsesErrorFeedback() ? &error : nullptr;
    CodecWorkspace ws;
    std::vector<uint8_t> blob;
    std::vector<float> decoded(static_cast<size_t>(n));

    // Two warmup rounds grow every buffer to its steady-state capacity.
    for (uint64_t round = 0; round < 2; ++round) {
      (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/round,
                       error_ptr, &ws, &blob);
      CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                       &ws, decoded.data()));
    }

    g_allocation_count.store(0, std::memory_order_relaxed);
    g_count_allocations.store(true, std::memory_order_relaxed);
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/2, error_ptr,
                     &ws, &blob);
    CHECK_OK((*codec)->Decode(blob.data(), static_cast<int64_t>(blob.size()), shape,
                     &ws, decoded.data()));
    g_count_allocations.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0);
  }

  registry.set_enabled(was_enabled);
}

// A workspace carries no cross-call state: bytes produced through a
// workspace dirtied by every other codec must equal bytes from a fresh one.
TEST(WorkspaceTest, DirtyWorkspaceProducesIdenticalBytes) {
  const int64_t n = 1000;
  const Shape shape({25, 40});
  const std::vector<float> grad = TestGradient(n, 0xd1f7ULL);
  const std::vector<CodecCase> cases = AllCodecCases();

  for (const CodecCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto codec = c.spec.Create();
    ASSERT_TRUE(codec.ok());

    CodecWorkspace dirty;
    std::vector<uint8_t> scratch_blob;
    std::vector<float> scratch_out(static_cast<size_t>(n));
    for (const CodecCase& other : cases) {
      auto other_codec = other.spec.Create();
      ASSERT_TRUE(other_codec.ok());
      std::vector<float> other_error(static_cast<size_t>(n), 0.0f);
      (*other_codec)
          ->Encode(grad.data(), shape, /*stochastic_tag=*/99,
                   (*other_codec)->UsesErrorFeedback() ? &other_error
                                                       : nullptr,
                   &dirty, &scratch_blob);
      CHECK_OK((*other_codec)
          ->Decode(scratch_blob.data(),
                   static_cast<int64_t>(scratch_blob.size()), shape, &dirty,
                   scratch_out.data()));
    }

    std::vector<float> error_fresh(static_cast<size_t>(n), 0.0f);
    std::vector<float> error_dirty(static_cast<size_t>(n), 0.0f);
    const bool uses_error = (*codec)->UsesErrorFeedback();
    CodecWorkspace fresh;
    std::vector<uint8_t> blob_fresh;
    std::vector<uint8_t> blob_dirty;
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/7,
                     uses_error ? &error_fresh : nullptr, &fresh,
                     &blob_fresh);
    (*codec)->Encode(grad.data(), shape, /*stochastic_tag=*/7,
                     uses_error ? &error_dirty : nullptr, &dirty,
                     &blob_dirty);
    EXPECT_EQ(blob_fresh, blob_dirty);
    EXPECT_EQ(error_fresh, error_dirty);

    std::vector<float> out_fresh(static_cast<size_t>(n));
    std::vector<float> out_dirty(static_cast<size_t>(n));
    CHECK_OK((*codec)->Decode(blob_fresh.data(),
                     static_cast<int64_t>(blob_fresh.size()), shape, &fresh,
                     out_fresh.data()));
    CHECK_OK((*codec)->Decode(blob_dirty.data(),
                     static_cast<int64_t>(blob_dirty.size()), shape, &dirty,
                     out_dirty.data()));
    EXPECT_EQ(0, std::memcmp(out_fresh.data(), out_dirty.data(),
                             static_cast<size_t>(n) * sizeof(float)));
  }
}

TEST(WorkspaceTest, EnsureSizeRecordsGrowthOnlyWhenCapacityGrows) {
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const int64_t events_before =
      registry.CounterValue("quant/workspace/grow_events");
  const int64_t bytes_before =
      registry.CounterValue("quant/workspace/grown_bytes");

  std::vector<float> buf;
  quant_internal::EnsureSize(&buf, 100);
  EXPECT_EQ(registry.CounterValue("quant/workspace/grow_events"),
            events_before + 1);
  EXPECT_GE(registry.CounterValue("quant/workspace/grown_bytes"),
            bytes_before + static_cast<int64_t>(100 * sizeof(float)));

  // Same size again, and a shrink within capacity: no further growth.
  const int64_t events_grown =
      registry.CounterValue("quant/workspace/grow_events");
  quant_internal::EnsureSize(&buf, 100);
  quant_internal::EnsureSize(&buf, 17);
  quant_internal::EnsureSize(&buf, 100);
  EXPECT_EQ(registry.CounterValue("quant/workspace/grow_events"),
            events_grown);

  registry.set_enabled(was_enabled);
}

// The MPI aggregator reaches a steady state: its per-slot workspaces and
// per-matrix exchange buffers grow during warmup and then stop — watched
// through the quant/workspace/grow_events counter, which every EnsureSize
// growth bumps.
TEST(WorkspaceAllocationTest, AggregatorWorkspaceGrowthStopsAfterWarmup) {
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  const int k = 4;
  for (const CodecCase& c :
       {CodecCase{"qsgd4",
                  QsgdWith(QsgdNorm::kMax, QsgdLevelScheme::kSignMagnitude)},
        CodecCase{"one_bit_star", OneBitSgdReshapedSpec(64)},
        // Sparse path: the persistent (index, value) runs must reach a
        // steady state just like the dense decode buffers.
        CodecCase{"topk_25pct", TopKSpec(0.25)}}) {
    SCOPED_TRACE(c.name);
    auto aggregator = MpiReduceBcastAggregator::Create(
        k, c.spec, Ec2P2_8xlarge(), ExecutionContext::Serial());
    ASSERT_TRUE(aggregator.ok());

    // Two quantized matrices of different sizes plus one policy-bypassed
    // matrix exercising the full-precision pipeline's persistent sums.
    const std::vector<Shape> shapes = {Shape({16, 32}), Shape({25, 40}),
                                       Shape({8, 8})};
    std::vector<std::vector<std::vector<float>>> grads(shapes.size());
    std::vector<std::vector<std::vector<float>>> errors(shapes.size());
    for (size_t m = 0; m < shapes.size(); ++m) {
      const size_t n = static_cast<size_t>(shapes[m].element_count());
      for (int r = 0; r < k; ++r) {
        grads[m].push_back(
            TestGradient(static_cast<int64_t>(n),
                         0xbeefULL + m * 31 + static_cast<uint64_t>(r)));
        errors[m].emplace_back(n, 0.0f);
      }
    }

    auto run_once = [&](int64_t iteration) {
      std::vector<MatrixSlot> slots(shapes.size());
      for (size_t m = 0; m < shapes.size(); ++m) {
        slots[m].quant_shape = shapes[m];
        slots[m].quantized = m != 2;  // matrix 2 takes the fp pipeline
        for (int r = 0; r < k; ++r) {
          slots[m].rank_grads.push_back(
              grads[m][static_cast<size_t>(r)].data());
          slots[m].rank_errors.push_back(&errors[m][static_cast<size_t>(r)]);
        }
      }
      auto stats = (*aggregator)->AllReduce(&slots, iteration);
      ASSERT_TRUE(stats.ok());
    };

    run_once(0);
    run_once(1);
    const int64_t grow_events_after_warmup =
        registry.CounterValue("quant/workspace/grow_events");
    for (int64_t iteration = 2; iteration < 6; ++iteration) {
      run_once(iteration);
    }
    EXPECT_EQ(registry.CounterValue("quant/workspace/grow_events"),
              grow_events_after_warmup)
        << "aggregator exchange buffers grew after warmup";
  }

  registry.set_enabled(was_enabled);
}

// The whole steady-state exchange is allocation-free, not just the codec
// calls: with the fc_exchange benchmark's matrices (BuildMlp({256, 1024,
// 1024, 10}): weights quantized, biases on the full-precision pipeline) on
// a 2-thread pool, AllReduce calls after two warm-up calls perform zero
// heap allocations — rank and aggregate blobs, tile scratch, residual
// checkpoints, ParallelFor bodies, and thread-pool batches all reuse
// storage.
TEST(WorkspaceAllocationTest, SteadyStateAllReduceAllocatesNothing) {
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);  // metric mutation is not part of the path

  const int k = 4;
  const std::vector<Shape> shapes = {Shape({1024, 256}), Shape({1024}),
                                     Shape({1024, 1024}), Shape({1024}),
                                     Shape({10, 1024}),   Shape({10})};
  // The error-feedback rows show that the stage's workspace buffer stops
  // growing too, for a splittable and an unsplittable codec.
  for (const CodecCase& c :
       {CodecCase{"qsgd4", QsgdSpec(4)}, CodecCase{"ecq4", EcqSgdSpec(4)},
        CodecCase{"1bit*:64", OneBitSgdReshapedSpec(64)},
        CodecCase{"topk:0.25", TopKSpec(0.25)}}) {
    SCOPED_TRACE(c.name);
    auto aggregator = MpiReduceBcastAggregator::Create(
        k, c.spec, Ec2P2_8xlarge(), ExecutionContext::WithThreads(2));
    ASSERT_TRUE(aggregator.ok());

    std::vector<std::vector<std::vector<float>>> grads(shapes.size());
    std::vector<std::vector<std::vector<float>>> errors(shapes.size());
    std::vector<MatrixSlot> slots(shapes.size());
    for (size_t m = 0; m < shapes.size(); ++m) {
      const int64_t n = shapes[m].element_count();
      for (int r = 0; r < k; ++r) {
        grads[m].push_back(
            TestGradient(n, 0x5a11ULL + m * 31 + static_cast<uint64_t>(r)));
        errors[m].emplace_back(static_cast<size_t>(n), 0.0f);
      }
      slots[m].quant_shape = shapes[m];
      slots[m].quantized = shapes[m].ndim() == 2;  // biases bypass
      for (int r = 0; r < k; ++r) {
        slots[m].rank_grads.push_back(grads[m][static_cast<size_t>(r)].data());
        slots[m].rank_errors.push_back(&errors[m][static_cast<size_t>(r)]);
      }
    }

    for (int64_t iteration = 0; iteration < 2; ++iteration) {
      ASSERT_TRUE((*aggregator)->AllReduce(&slots, iteration).ok());
    }
    for (int64_t iteration = 2; iteration < 4; ++iteration) {
      g_allocation_count.store(0, std::memory_order_relaxed);
      g_count_allocations.store(true, std::memory_order_relaxed);
      const bool ok = (*aggregator)->AllReduce(&slots, iteration).ok();
      g_count_allocations.store(false, std::memory_order_relaxed);
      ASSERT_TRUE(ok);
      EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0)
          << "iteration " << iteration;
    }
  }

  registry.set_enabled(was_enabled);
}

// The NCCL ring's sparse allgather path reaches the same steady state:
// per-slot workspaces, per-(matrix, rank) index/value runs, and the
// per-matrix scatter-add aggregate all stop growing after warmup.
TEST(WorkspaceAllocationTest, NcclSparseBuffersStopGrowingAfterWarmup) {
  auto& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);

  const int k = 4;
  auto aggregator =
      CreateAggregator(CommPrimitive::kNccl, k, TopKSpec(0.25),
                       Ec2P2_8xlarge(), ExecutionContext::Serial());
  ASSERT_TRUE(aggregator.ok());

  const std::vector<Shape> shapes = {Shape({16, 32}), Shape({25, 40})};
  std::vector<std::vector<std::vector<float>>> grads(shapes.size());
  std::vector<std::vector<std::vector<float>>> errors(shapes.size());
  for (size_t m = 0; m < shapes.size(); ++m) {
    const size_t n = static_cast<size_t>(shapes[m].element_count());
    for (int r = 0; r < k; ++r) {
      grads[m].push_back(
          TestGradient(static_cast<int64_t>(n),
                       0xcafeULL + m * 31 + static_cast<uint64_t>(r)));
      errors[m].emplace_back(n, 0.0f);
    }
  }
  auto run_once = [&](int64_t iteration) {
    std::vector<MatrixSlot> slots(shapes.size());
    for (size_t m = 0; m < shapes.size(); ++m) {
      slots[m].quant_shape = shapes[m];
      for (int r = 0; r < k; ++r) {
        slots[m].rank_grads.push_back(
            grads[m][static_cast<size_t>(r)].data());
        slots[m].rank_errors.push_back(&errors[m][static_cast<size_t>(r)]);
      }
    }
    auto stats = (*aggregator)->AllReduce(&slots, iteration);
    ASSERT_TRUE(stats.ok());
  };

  run_once(0);
  run_once(1);
  const int64_t grow_events_after_warmup =
      registry.CounterValue("quant/workspace/grow_events");
  for (int64_t iteration = 2; iteration < 6; ++iteration) {
    run_once(iteration);
  }
  EXPECT_EQ(registry.CounterValue("quant/workspace/grow_events"),
            grow_events_after_warmup)
      << "NCCL sparse exchange buffers grew after warmup";

  registry.set_enabled(was_enabled);
}

// A failed exchange must leave the aggregator's persistent buffers and
// owner-side residuals safe to reuse: with the caller's slot state
// restored (the retry wrapper's job, emulated here) and the same iteration
// re-run, the continuation must be bit-identical to a run that never saw
// the failure. Exercised for both failure points — a rank blob corrupted
// in the reduce stage, and the aggregate blob corrupted in the broadcast
// stage after the owner residuals were already advanced.
TEST(WorkspaceTest, ExchangeStateSafeToReuseAfterFailedExchange) {
  const int k = 4;
  const std::vector<Shape> shapes = {Shape({16, 32}), Shape({25, 40})};
  const int64_t iterations = 6;

  for (const CodecCase& c :
       {CodecCase{"one_bit_star", OneBitSgdReshapedSpec(64)},
        CodecCase{"topk_25pct", TopKSpec(0.25)},
        CodecCase{"qsgd4",
                  QsgdWith(QsgdNorm::kMax, QsgdLevelScheme::kSignMagnitude)}}) {
    SCOPED_TRACE(c.name);

    using State = std::vector<std::vector<std::vector<float>>>;  // [m][r]
    const auto make_state = [&](State* grads, State* errors) {
      grads->assign(shapes.size(), {});
      errors->assign(shapes.size(), {});
      for (size_t m = 0; m < shapes.size(); ++m) {
        const size_t n = static_cast<size_t>(shapes[m].element_count());
        for (int r = 0; r < k; ++r) {
          (*grads)[m].push_back(
              TestGradient(static_cast<int64_t>(n),
                           0xfa17ULL + m * 31 + static_cast<uint64_t>(r)));
          (*errors)[m].emplace_back(n, 0.0f);
        }
      }
    };
    const auto run_iteration = [&](MpiReduceBcastAggregator* aggregator,
                                   State* grads, State* errors,
                                   int64_t iteration) {
      std::vector<MatrixSlot> slots(shapes.size());
      for (size_t m = 0; m < shapes.size(); ++m) {
        slots[m].quant_shape = shapes[m];
        slots[m].quantized = true;
        for (int r = 0; r < k; ++r) {
          slots[m].rank_grads.push_back(
              (*grads)[m][static_cast<size_t>(r)].data());
          slots[m].rank_errors.push_back(
              &(*errors)[m][static_cast<size_t>(r)]);
        }
      }
      return (*aggregator).AllReduce(&slots, iteration);
    };

    // Reference: the same schedule with no failures.
    auto reference = MpiReduceBcastAggregator::Create(
        k, c.spec, Ec2P2_8xlarge(), ExecutionContext::Serial());
    ASSERT_TRUE(reference.ok());
    State ref_grads, ref_errors;
    make_state(&ref_grads, &ref_errors);
    for (int64_t it = 0; it < iterations; ++it) {
      ASSERT_TRUE(
          run_iteration(reference->get(), &ref_grads, &ref_errors, it).ok());
    }

    auto faulty = MpiReduceBcastAggregator::Create(
        k, c.spec, Ec2P2_8xlarge(), ExecutionContext::Serial());
    ASSERT_TRUE(faulty.ok());
    State grads, errors;
    make_state(&grads, &errors);
    for (int64_t it = 0; it < iterations; ++it) {
      const bool fail_reduce = it == 1;
      const bool fail_bcast = it == 3;
      if (fail_reduce || fail_bcast) {
        // Emulate the retry wrapper: snapshot caller state, provoke a
        // checksum failure, restore, and retry the same iteration.
        const State grads_snapshot = grads;
        const State errors_snapshot = errors;
        (*faulty)->set_wire_tamper(
            [&](int64_t, int64_t matrix, int rank, uint8_t* data,
                int64_t size) {
              const bool hit = fail_reduce ? (matrix == 1 && rank == 2)
                                           : (matrix == 0 && rank == -1);
              if (hit && size > 0) data[size / 2] ^= 0x10;
              return hit;
            });
        ASSERT_FALSE(
            run_iteration(faulty->get(), &grads, &errors, it).ok());
        (*faulty)->set_wire_tamper(nullptr);
        grads = grads_snapshot;
        errors = errors_snapshot;
      }
      ASSERT_TRUE(run_iteration(faulty->get(), &grads, &errors, it).ok());
    }

    EXPECT_EQ(ref_grads, grads)
        << "aggregated gradients diverged after a failed exchange";
    EXPECT_EQ(ref_errors, errors)
        << "error-feedback residuals diverged after a failed exchange";
  }
}

}  // namespace
}  // namespace lpsgd

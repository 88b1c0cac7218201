// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Fixed-size host worker pool with a blocking ParallelFor, plus the
// ExecutionContext handle that threads it through the training stack
// (TrainerOptions -> SyncTrainer -> GradientAggregator -> codec call
// sites).
//
// Design constraints (DESIGN.md, "Execution model"):
//  * Deterministic callers: the pool only schedules. Every call site keeps
//    floating-point reduction orders fixed and derives randomness from
//    counter-based tags, so results are byte-identical at any worker
//    count — a tested invariant.
//  * Status/exception propagation: the failure with the lowest index among
//    those observed wins; once a failure is recorded the remaining indices
//    are skipped; exceptions rethrow on the submitting thread.
//  * Nested submission is disallowed: a ParallelFor issued from inside a
//    pool task runs inline (serially) on the calling thread instead of
//    deadlocking the pool.
#ifndef LPSGD_BASE_THREAD_POOL_H_
#define LPSGD_BASE_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"

namespace lpsgd {

namespace pool_internal {

// Metric hooks wired up by src/obs at static-initialization time so the
// pool can bump pool/* counters without lpsgd_base depending on lpsgd_obs
// (obs sits above base in the layering). Null hooks are skipped.
using CountHook = void (*)(const char* name, int64_t delta);
using ObserveHook = void (*)(const char* name, double value);
void SetMetricHooks(CountHook count, ObserveHook observe);

// Recycled storage for finished ParallelFor batches (thread_pool.cc).
class BatchStorage;

}  // namespace pool_internal

// Fixed-size worker pool. A pool of `num_threads` runs parallel loops on
// num_threads - 1 spawned workers plus the submitting thread; a pool of 1
// spawns nothing and executes every loop inline, reproducing the
// historical serial order trivially.
class ThreadPool {
 public:
  // `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  int num_threads() const { return num_threads_; }

  // Runs fn(i) once for every i in [begin, end) and blocks until all
  // indices finished. Empty ranges return OK immediately; single-element
  // ranges, 1-thread pools, and nested calls from inside a pool task run
  // inline on the calling thread. Concurrent submissions from different
  // user threads serialize.
  //
  // On failure the Status of the lowest-index failing call observed is
  // returned after the batch drains (remaining indices are skipped). An
  // exception escaping `fn` is captured and rethrown here, on the
  // submitting thread.
  [[nodiscard]] Status ParallelFor(int64_t begin, int64_t end,
                                   const std::function<Status(int64_t)>& fn)
      LPSGD_EXCLUDES(submit_mu_, mu_);

  // True while the calling thread is executing a ParallelFor task (worker
  // or participating submitter) of any pool in the process.
  static bool InPoolTask();

  // Stable per-thread slot id for indexing per-thread scratch (e.g. the
  // aggregators' codec workspaces): spawned workers of a pool occupy slots
  // [1, num_threads); every other thread — including the participating
  // submitter — reports slot 0. Two threads executing tasks of the same
  // ParallelFor batch never share a slot, so workspaces_[CurrentSlot()] is
  // race-free scratch as long as the submitter is not itself a worker of a
  // different pool (the one-pool-per-run rule, DESIGN.md "Execution
  // model").
  static int CurrentSlot();

 private:
  struct Batch;

  void WorkerLoop(int slot) LPSGD_EXCLUDES(mu_);
  // Pulls and runs indices until `batch` is exhausted.
  static void RunTasks(Batch& batch, bool record_queue_wait);
  static void RecordFailure(Batch& batch, int64_t index, Status status,
                            std::exception_ptr exception);

  int num_threads_ = 1;
  // Batches are allocated from here, so steady-state ParallelFor calls
  // reuse the storage of finished ones instead of touching the heap.
  // Declared before everything that can hold a batch.
  std::unique_ptr<pool_internal::BatchStorage> batch_storage_;
  std::vector<std::thread> workers_;

  // Serializes whole batches submitted from different user threads.
  Mutex submit_mu_;

  Mutex mu_;
  CondVar work_cv_;
  std::shared_ptr<Batch> current_ LPSGD_GUARDED_BY(mu_);
  uint64_t batch_epoch_ LPSGD_GUARDED_BY(mu_) = 0;
  bool shutdown_ LPSGD_GUARDED_BY(mu_) = false;
};

// How much host parallelism a component may use, and on which pool. The
// default (intra_op_threads == 0) asks for one thread per hardware core;
// 1 reproduces the historical serial execution — though every thread
// count produces byte-identical results, see the class comment above.
//
// Copies share the pool, so TrainerOptions can be passed by value and the
// trainer plus its aggregator drain the same workers.
struct ExecutionContext {
  std::shared_ptr<ThreadPool> pool;  // null until materialized => inline
  int intra_op_threads = 0;          // 0 = auto (hardware concurrency)

  // Serial context: no pool, loops run inline (today's behaviour).
  static ExecutionContext Serial();
  // Materialized context with its own pool; `threads` <= 0 selects the
  // hardware concurrency, 1 yields a serial context.
  static ExecutionContext WithThreads(int threads);

  // Thread count this context asks for (auto resolved), before any pool
  // exists.
  int requested_threads() const;
  // Effective worker count: the pool's size, or 1 while unmaterialized.
  int threads() const { return pool != nullptr ? pool->num_threads() : 1; }
  bool parallel() const { return threads() > 1; }

  // Returns a copy whose pool exists (spawned per requested_threads());
  // no-op when already materialized or serial. SyncTrainer::Create calls
  // this once and shares the result with its aggregator.
  ExecutionContext Materialized() const;

  // Runs fn over [begin, end): on the pool when parallel, inline
  // otherwise. Same failure contract as ThreadPool::ParallelFor.
  [[nodiscard]] Status ParallelFor(
      int64_t begin, int64_t end,
      const std::function<Status(int64_t)>& fn) const;

  // Human-readable summary for CLI run headers, e.g. "serial (1 thread)"
  // or "parallel (8 threads)".
  std::string Description() const;
};

}  // namespace lpsgd

#endif  // LPSGD_BASE_THREAD_POOL_H_

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "base/mutex.h"
#include "base/strings.h"
#include "base/thread_annotations.h"

namespace lpsgd {
namespace {

// Set while a thread executes ParallelFor tasks — permanently for pool
// workers, scoped for the submitting thread while it participates. Nested
// ParallelFor calls consult it and fall back to inline execution.
thread_local bool tls_in_pool_task = false;

// Per-thread workspace slot: pool workers set theirs once at spawn; all
// other threads (submitters included) stay at 0. See
// ThreadPool::CurrentSlot().
thread_local int tls_pool_slot = 0;

std::atomic<pool_internal::CountHook> g_count_hook{nullptr};
std::atomic<pool_internal::ObserveHook> g_observe_hook{nullptr};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware < 1 ? 1 : hardware;
}

// RAII toggle for the submitting thread's participation.
class ScopedPoolTask {
 public:
  ScopedPoolTask() : previous_(tls_in_pool_task) { tls_in_pool_task = true; }
  ScopedPoolTask(const ScopedPoolTask&) = delete;
  ScopedPoolTask& operator=(const ScopedPoolTask&) = delete;
  ~ScopedPoolTask() { tls_in_pool_task = previous_; }

 private:
  bool previous_;
};

}  // namespace

namespace pool_internal {

void SetMetricHooks(CountHook count, ObserveHook observe) {
  g_count_hook.store(count, std::memory_order_release);
  g_observe_hook.store(observe, std::memory_order_release);
}

// Free list of batch blocks. std::allocate_shared places a batch's control
// block and the Batch itself in one block of a fixed size; when the last
// reference drops — on whichever thread — the block parks here until the
// next ParallelFor takes it. At most one batch per thread is alive at a
// time (the posted one plus late workers still holding older ones), and
// the first allocation provisions that many blocks up front, so the pool
// never touches the heap again, however the workers are scheduled
// (DESIGN.md §7).
class BatchStorage {
 public:
  explicit BatchStorage(int num_threads)
      : capacity_(static_cast<size_t>(num_threads) + 1) {
    free_.reserve(capacity_);
  }
  BatchStorage(const BatchStorage&) = delete;
  BatchStorage& operator=(const BatchStorage&) = delete;
  ~BatchStorage() {
    for (void* block : free_) ::operator delete(block);
  }

  void* Allocate(size_t bytes) {
    MutexLock lock(mu_);
    if (!provisioned_) {
      provisioned_ = true;
      while (free_.size() < capacity_) free_.push_back(::operator new(bytes));
    }
    if (free_.empty()) return ::operator new(bytes);  // concurrent submitters
    void* block = free_.back();
    free_.pop_back();
    return block;
  }

  void Free(void* block) {
    {
      MutexLock lock(mu_);
      if (free_.size() < capacity_) {
        free_.push_back(block);  // within the reserved capacity
        return;
      }
    }
    ::operator delete(block);
  }

 private:
  const size_t capacity_;
  Mutex mu_;
  bool provisioned_ LPSGD_GUARDED_BY(mu_) = false;
  std::vector<void*> free_ LPSGD_GUARDED_BY(mu_);
};

}  // namespace pool_internal

namespace {

// Allocator handing std::allocate_shared the pool's recycled blocks. Every
// rebinding allocates the same single object type, so blocks are
// interchangeable.
template <typename T>
struct BatchAllocator {
  using value_type = T;

  explicit BatchAllocator(pool_internal::BatchStorage* storage)
      : storage(storage) {}
  template <typename U>
  BatchAllocator(const BatchAllocator<U>& other)  // NOLINT: rebinding
      : storage(other.storage) {}

  T* allocate(size_t count) {
    return static_cast<T*>(storage->Allocate(count * sizeof(T)));
  }
  void deallocate(T* block, size_t /*count*/) { storage->Free(block); }

  template <typename U>
  bool operator==(const BatchAllocator<U>& other) const {
    return storage == other.storage;
  }

  pool_internal::BatchStorage* storage;
};

}  // namespace

// One ParallelFor invocation. Shared with the workers (its storage comes
// from batch_storage_) so a late-waking worker can never touch a dead
// stack frame.
struct ThreadPool::Batch {
  int64_t end = 0;
  int64_t total = 0;  // indices in the batch
  const std::function<Status(int64_t)>* fn = nullptr;
  double posted_at = 0.0;
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};

  Mutex mu;
  CondVar done_cv;
  int64_t completed LPSGD_GUARDED_BY(mu) = 0;
  // Lowest failing index observed so far.
  int64_t error_index LPSGD_GUARDED_BY(mu) = -1;
  Status status LPSGD_GUARDED_BY(mu);
  std::exception_ptr exception LPSGD_GUARDED_BY(mu);
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreadCount(num_threads)),
      batch_storage_(
          std::make_unique<pool_internal::BatchStorage>(num_threads_)) {
  // The submitting thread is one of the executors, so spawn one fewer.
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InPoolTask() { return tls_in_pool_task; }

int ThreadPool::CurrentSlot() { return tls_pool_slot; }

void ThreadPool::WorkerLoop(int slot) {
  tls_in_pool_task = true;
  tls_pool_slot = slot;
  uint64_t seen_epoch = 0;
  mu_.Lock();
  while (true) {
    while (!shutdown_ && batch_epoch_ == seen_epoch) work_cv_.Wait(mu_);
    if (shutdown_) break;
    seen_epoch = batch_epoch_;
    std::shared_ptr<Batch> batch = current_;
    mu_.Unlock();
    if (batch != nullptr) RunTasks(*batch, /*record_queue_wait=*/true);
    mu_.Lock();
  }
  mu_.Unlock();
}

void ThreadPool::RecordFailure(Batch& batch, int64_t index, Status status,
                               std::exception_ptr exception) {
  MutexLock lock(batch.mu);
  if (batch.error_index < 0 || index < batch.error_index) {
    batch.error_index = index;
    batch.status = std::move(status);
    batch.exception = std::move(exception);
  }
  batch.failed.store(true, std::memory_order_release);
}

void ThreadPool::RunTasks(Batch& batch, bool record_queue_wait) {
  if (record_queue_wait) {
    if (auto* observe = g_observe_hook.load(std::memory_order_acquire)) {
      observe("pool/queue_wait_seconds", NowSeconds() - batch.posted_at);
    }
  }
  int64_t ran = 0;
  for (;;) {
    const int64_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.end) break;
    if (!batch.failed.load(std::memory_order_acquire)) {
      try {
        Status status = (*batch.fn)(i);
        if (!status.ok()) {
          RecordFailure(batch, i, std::move(status), nullptr);
        }
      } catch (...) {
        RecordFailure(
            batch, i,
            InternalError(StrCat("ParallelFor body threw at index ", i)),
            std::current_exception());
      }
    }
    ++ran;
  }
  MutexLock lock(batch.mu);
  batch.completed += ran;
  if (batch.completed == batch.total) batch.done_cv.NotifyAll();
}

Status ThreadPool::ParallelFor(int64_t begin, int64_t end,
                               const std::function<Status(int64_t)>& fn) {
  if (end <= begin) return OkStatus();
  const int64_t count = end - begin;
  if (count == 1 || workers_.empty() || tls_in_pool_task) {
    // Inline path: trivial range, 1-thread pool, or nested submission
    // (disallowed on the pool — runs serially right here instead).
    for (int64_t i = begin; i < end; ++i) {
      LPSGD_RETURN_IF_ERROR(fn(i));
    }
    return OkStatus();
  }

  if (auto* hook = g_count_hook.load(std::memory_order_acquire)) {
    hook("pool/tasks", count);
    hook("pool/parallel_for_calls", 1);
  }

  auto batch = std::allocate_shared<Batch>(
      BatchAllocator<Batch>(batch_storage_.get()));
  batch->end = end;
  batch->total = count;
  batch->fn = &fn;
  batch->posted_at = NowSeconds();
  batch->next.store(begin, std::memory_order_relaxed);

  // One batch in flight at a time; concurrent submitters queue here.
  MutexLock submit_lock(submit_mu_);
  {
    MutexLock lock(mu_);
    current_ = batch;
    ++batch_epoch_;
  }
  work_cv_.NotifyAll();

  {
    // The submitter drains alongside the workers.
    ScopedPoolTask in_task;
    RunTasks(*batch, /*record_queue_wait=*/false);
  }

  std::exception_ptr exception;
  Status status;
  {
    MutexLock lock(batch->mu);
    while (batch->completed != batch->total) batch->done_cv.Wait(batch->mu);
    exception = batch->exception;
    status = batch->status;
  }
  {
    MutexLock lock(mu_);
    current_.reset();
  }
  if (exception != nullptr) std::rethrow_exception(exception);
  return status;
}

ExecutionContext ExecutionContext::Serial() {
  ExecutionContext context;
  context.intra_op_threads = 1;
  return context;
}

ExecutionContext ExecutionContext::WithThreads(int threads) {
  ExecutionContext context;
  context.intra_op_threads = threads <= 0 ? 0 : threads;
  return context.Materialized();
}

int ExecutionContext::requested_threads() const {
  return ResolveThreadCount(intra_op_threads);
}

ExecutionContext ExecutionContext::Materialized() const {
  ExecutionContext context = *this;
  const int requested = requested_threads();
  context.intra_op_threads = requested;
  if (context.pool == nullptr && requested > 1) {
    context.pool = std::make_shared<ThreadPool>(requested);
  }
  return context;
}

Status ExecutionContext::ParallelFor(
    int64_t begin, int64_t end,
    const std::function<Status(int64_t)>& fn) const {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int64_t i = begin; i < end; ++i) {
      LPSGD_RETURN_IF_ERROR(fn(i));
    }
    return OkStatus();
  }
  return pool->ParallelFor(begin, end, fn);
}

std::string ExecutionContext::Description() const {
  if (pool != nullptr && pool->num_threads() > 1) {
    return StrCat("parallel (", pool->num_threads(), " threads)");
  }
  if (pool == nullptr && requested_threads() > 1) {
    return StrCat("parallel (", requested_threads(),
                  " threads once materialized)");
  }
  return "serial (1 thread)";
}

}  // namespace lpsgd

// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Compile-time invariant markers.
//
// The LPSGD_* thread-safety macros wrap Clang's thread-safety-analysis
// attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) and
// expand to nothing on other compilers, so annotated code builds everywhere
// while `clang++ -Wthread-safety -Werror` (the dedicated CI job) proves the
// locking discipline: every access to an LPSGD_GUARDED_BY member must hold
// the named mutex, every LPSGD_REQUIRES function must be entered with it
// held, and lock/unlock pairing is checked on all paths.
//
// Annotate new code like this (see base/mutex.h for the annotated Mutex):
//
//   class Cache {
//    public:
//     void Insert(Entry e) LPSGD_EXCLUDES(mu_) {
//       MutexLock lock(mu_);
//       entries_.push_back(std::move(e));  // OK: mu_ held
//     }
//    private:
//     mutable Mutex mu_;
//     std::vector<Entry> entries_ LPSGD_GUARDED_BY(mu_);
//   };
//
// LPSGD_HOT_PATH is a pure lint marker (it expands to nothing on every
// compiler): placing it immediately before a function definition or a
// lambda declares the body allocation-free, and tools/lint/lpsgd_lint
// mechanically rejects `new`, `malloc`, `.resize(`, `.push_back(`, and
// by-value `std::vector<...>` locals/temporaries inside the marked body.
// The codec Encode/Decode kernels, the BitWriter/BitReader streams, and
// the aggregators' steady-state exchange loops all carry it.
#ifndef LPSGD_BASE_THREAD_ANNOTATIONS_H_
#define LPSGD_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(x)
#endif

// Declares a class to be a capability (lockable): base/mutex.h's Mutex.
#define LPSGD_CAPABILITY(x) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

// Declares an RAII class that acquires a capability at construction and
// releases it at destruction: base/mutex.h's MutexLock.
#define LPSGD_SCOPED_CAPABILITY \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

// Declares that a data member may only be accessed while holding `x`.
#define LPSGD_GUARDED_BY(x) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

// As LPSGD_GUARDED_BY, but guards the data a pointer member points to.
#define LPSGD_PT_GUARDED_BY(x) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

// Declares that callers must hold the listed capabilities on entry (and
// still hold them on exit).
#define LPSGD_REQUIRES(...) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

// Declares that callers must NOT hold the listed capabilities (the
// function acquires them itself; guards against self-deadlock).
#define LPSGD_EXCLUDES(...) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

// Declares that the function acquires / releases the listed capabilities
// (or, with no argument on a member of a capability class, `this`).
#define LPSGD_ACQUIRE(...) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define LPSGD_RELEASE(...) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

// Declares that the function returns a reference to the given capability.
#define LPSGD_RETURN_CAPABILITY(x) \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

// Escape hatch: turns the analysis off for one function. Use only with a
// comment explaining why the discipline holds anyway.
#define LPSGD_NO_THREAD_SAFETY_ANALYSIS \
  LPSGD_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

// Zero-allocation marker enforced by tools/lint/lpsgd_lint (see the file
// comment above). Not a compiler attribute on purpose: it must be legal
// immediately before lambda expressions, where C++20 allows no attributes.
#define LPSGD_HOT_PATH

// Transitive-purity escape hatch read by tools/lint/lpsgd_lint. Its
// hot-path-alloc rule requires every function reachable from an
// LPSGD_HOT_PATH region to be allocation-free; placing
// `LPSGD_HOT_CALLEE_OK(Fn);` (unqualified name, or Class::Fn) near the call
// site exempts calls to `Fn` from the transitive walk. Use only for callees
// that are provably cold at steady state (error paths, one-time setup) and
// say why in a comment on the same line. Expands to nothing on every
// compiler; the grammar is checked by the lint, which rejects an
// annotation naming a function that no hot region reaches (a stale
// exemption is an error, not a no-op).
#define LPSGD_HOT_CALLEE_OK(fn)

#endif  // LPSGD_BASE_THREAD_ANNOTATIONS_H_

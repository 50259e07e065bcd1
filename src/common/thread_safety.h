// Compile-time lock discipline: Clang thread-safety annotations plus
// annotated wrappers over the std synchronization primitives.
//
// Every lock-protected member in the concurrent stack (the locks are listed
// in the lock hierarchy of docs/ARCHITECTURE.md "Concurrency & locking
// discipline") is declared SLC_GUARDED_BY its mutex, and every *_locked()
// helper SLC_REQUIRES it, so a clang build with -Wthread-safety (CMake:
// -DSLC_THREAD_SAFETY_ANALYSIS=ON, CI job `thread-safety`) proves at compile
// time that no guarded field is touched without its lock and no helper is
// called without the capability it names. On GCC (or clang without the
// flag) the macros expand to nothing. The wrappers cost a std::mutex and a
// std::condition_variable: neither allocates, and a CondVar waits on its
// Mutex's own std::mutex. Mutex::lock() spins briefly before it sleeps (see
// Mutex).
//
// How to annotate new code (the same section holds the acquisition order):
//
//   * declare the lock as `Mutex m_;` and each field it protects as
//     `T field_ SLC_GUARDED_BY(m_);`
//   * take it with `MutexLock lk(m_);` (RAII; lk.unlock()/lk.lock() for a
//     window where the lock must drop — the analysis tracks both);
//   * private helpers that assume the lock are annotated
//     `void helper_locked() SLC_REQUIRES(m_);`
//   * condition waits are explicit loops over a CondVar —
//     `while (!predicate_field_) cv_.wait(m_);` — NOT std::condition_variable
//     predicate lambdas: the analysis treats a lambda body as a separate
//     unannotated function, so guarded reads inside one would warn;
//   * public entry points that take the lock themselves may declare
//     `SLC_EXCLUDES(m_)` to catch self-deadlock at call sites;
//   * a function whose safety argument the analysis cannot express (e.g. a
//     publish protected by an atomic counter handoff, not a mutex) gets
//     SLC_NO_THREAD_SAFETY_ANALYSIS and a comment saying why.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// Clang implements the capability analysis; other compilers see no-ops. The
// attributes themselves are accepted by clang with or without -Wthread-safety
// (the flag only enables the diagnostics).
#if defined(__clang__)
#define SLC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SLC_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Declares a type to be a capability (lockable). Argument names the
/// capability kind in diagnostics ("mutex").
#define SLC_CAPABILITY(x) SLC_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define SLC_SCOPED_CAPABILITY SLC_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding the named capability.
#define SLC_GUARDED_BY(x) SLC_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* may only be touched while holding it.
#define SLC_PT_GUARDED_BY(x) SLC_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (and did not hold it on entry).
#define SLC_ACQUIRE(...) SLC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define SLC_RELEASE(...) SLC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define SLC_TRY_ACQUIRE(ret, ...) \
  SLC_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must hold the capability across the call (held before and after).
#define SLC_REQUIRES(...) SLC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function takes it itself);
/// catches self-deadlock at the call site.
#define SLC_EXCLUDES(...) SLC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-ordering edges, checked when both locks are annotated.
#define SLC_ACQUIRED_BEFORE(...) SLC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SLC_ACQUIRED_AFTER(...) SLC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability (accessor pattern).
#define SLC_RETURN_CAPABILITY(x) SLC_THREAD_ANNOTATION(lock_returned(x))

/// Runtime assertion that the capability is held (trusted by the analysis).
#define SLC_ASSERT_CAPABILITY(x) SLC_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: the function body is not analyzed. Every use carries a
/// comment explaining the out-of-band synchronization argument.
#define SLC_NO_THREAD_SAFETY_ANALYSIS SLC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace slc {

/// std::mutex as a declared capability. Satisfies BasicLockable/Lockable —
/// but the annotated concurrent stack takes it through MutexLock, never
/// through std::lock_guard/std::unique_lock, which the analysis cannot see
/// into.
///
/// lock() tries kSpinRounds times, with a CPU pause between tries, before it
/// blocks: the serving path's critical sections are a few hundred
/// nanoseconds, shorter than a futex sleep and wake, so a thread that finds
/// the lock held usually gets it by waiting in place.
class SLC_CAPABILITY("mutex") Mutex {
 public:
  static constexpr int kSpinRounds = 100;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SLC_ACQUIRE() {
    for (int i = 0; i < kSpinRounds; ++i) {
      if (m_.try_lock()) return;
      cpu_relax();
    }
    m_.lock();
  }
  void unlock() SLC_RELEASE() { m_.unlock(); }
  bool try_lock() SLC_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex m_;
};

/// RAII lock over a Mutex, tracked by the analysis (scoped capability). The
/// unlock()/lock() pair opens a window where the lock is provably dropped —
/// the engine worker loop releases around each shard body — and the
/// destructor only releases when still held.
class SLC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) SLC_ACQUIRE(m) : m_(&m), held_(true) { m_->lock(); }
  ~MutexLock() SLC_RELEASE() {
    if (held_) m_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() SLC_RELEASE() {
    m_->unlock();
    held_ = false;
  }
  void lock() SLC_ACQUIRE() {
    m_->lock();
    held_ = true;
  }

 private:
  Mutex* m_;
  bool held_;
};

/// Condition variable bound to Mutex: a std::condition_variable that waits
/// on the Mutex's own std::mutex, which the caller already holds (adopted
/// for the wait, handed back after). wait() declares SLC_REQUIRES(m): the
/// caller holds m before and after (the internal unlock/relock is invisible
/// to the analysis, which matches the semantics of a condition wait). The
/// guarded predicate is re-checked by the caller's explicit while loop, so
/// every predicate read happens under the lock that guards its fields.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& m) SLC_REQUIRES(m) {
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // still held: the caller's MutexLock releases it
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& m, const std::chrono::duration<Rep, Period>& rel)
      SLC_REQUIRES(m) {
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lk, rel);
    lk.release();
    return status;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace slc

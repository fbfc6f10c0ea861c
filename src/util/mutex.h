/// \file mutex.h
/// The repo's one concurrency-primitive surface: annotated `Mutex`,
/// `MutexLock` and `CondVar` wrappers over the std primitives, plus the
/// Clang Thread Safety Analysis macro set (`GUARDED_BY`, `REQUIRES`,
/// `ACQUIRE`, ...). Under clang with
/// `-Wthread-safety` (the `-DWSD_THREAD_SAFETY=ON` build, see
/// docs/STATIC_ANALYSIS.md#lock-discipline) every lock-discipline
/// violation — an unguarded field access, a missing `REQUIRES`, a
/// double acquire, a cv-wait without the lock — is a compile error.
/// Under any other compiler the macros expand to nothing and the
/// wrappers compile down to the raw std calls, so there is no runtime
/// or portability cost.
///
/// Raw `std::mutex` / `std::lock_guard` / `std::unique_lock` /
/// `std::condition_variable` / `std::call_once` are banned outside this
/// file (wsd_lint rule [raw-concurrency]): a mutex the analysis cannot
/// see is a mutex nobody checks.

#ifndef WSD_UTIL_MUTEX_H_
#define WSD_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------
// Thread safety annotation macros. Active only where the attributes are
// understood (clang); no-ops elsewhere. Names follow the Clang TSA
// documentation / Abseil convention so the vocabulary is googleable.

#if defined(__clang__) && defined(__has_attribute)
#define WSD_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define WSD_THREAD_ANNOTATION_(x)  // not clang: annotations vanish
#endif

/// Declares a type to be a lockable capability ("mutex").
#define WSD_CAPABILITY(x) WSD_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define WSD_SCOPED_CAPABILITY WSD_THREAD_ANNOTATION_(scoped_lockable)

#ifndef GUARDED_BY
/// Field may only be read or written while `x` is held.
#define GUARDED_BY(x) WSD_THREAD_ANNOTATION_(guarded_by(x))
#endif

#ifndef PT_GUARDED_BY
/// Pointer field whose *pointee* may only be touched while `x` is held.
#define PT_GUARDED_BY(x) WSD_THREAD_ANNOTATION_(pt_guarded_by(x))
#endif

#ifndef REQUIRES
/// Caller must hold every listed capability (and keeps holding it).
#define REQUIRES(...) \
  WSD_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#endif

#ifndef EXCLUDES
/// Caller must NOT hold the listed capabilities (deadlock guard).
#define EXCLUDES(...) \
  WSD_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#endif

#ifndef ACQUIRE
/// Function acquires the capability and does not release it on return.
#define ACQUIRE(...) \
  WSD_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#endif

#ifndef RELEASE
/// Function releases a capability the caller holds.
#define RELEASE(...) \
  WSD_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#endif

#ifndef TRY_ACQUIRE
/// Function attempts the acquire; first arg is the success return value.
#define TRY_ACQUIRE(...) \
  WSD_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#endif

#ifndef ASSERT_CAPABILITY
/// Runtime assertion that the capability is held (teaches the analysis).
#define ASSERT_CAPABILITY(x) \
  WSD_THREAD_ANNOTATION_(assert_capability(x))
#endif

#ifndef RETURN_CAPABILITY
/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) WSD_THREAD_ANNOTATION_(lock_returned(x))
#endif

#ifndef NO_THREAD_SAFETY_ANALYSIS
/// Escape hatch: analysis is skipped for this function. Every use needs
/// a comment explaining why the discipline cannot be expressed.
#define NO_THREAD_SAFETY_ANALYSIS \
  WSD_THREAD_ANNOTATION_(no_thread_safety_analysis)
#endif

namespace wsd {

/// An annotated exclusive mutex. Prefer `MutexLock` over manual
/// Lock()/Unlock() pairs; manual pairs are for the rare staircase
/// pattern the analysis still checks via ACQUIRE/RELEASE.
class WSD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Declares (to the analysis, not at runtime) that this mutex is
  /// held: for callees reached only from locked regions the analysis
  /// cannot follow.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock: acquires on construction, releases on destruction. The
/// analysis tracks the scope, so a use-after-scope of a guarded field
/// is a compile error.
class WSD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to `Mutex`. `Wait` demands the lock via
/// REQUIRES, so a cv-wait without the mutex held no longer compiles
/// under the analysis — the bug class the ScanHandleCache miss-dedup
/// loop is most exposed to. There is deliberately no predicate
/// overload: the analysis cannot see into a predicate lambda, so
/// callers write the `while (!cond) cv.Wait(mu);` loop explicitly and
/// the guarded reads in `cond` stay checked.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Spurious wakeups happen; always re-check the condition.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's scope
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace wsd

#endif  // WSD_UTIL_MUTEX_H_

// Compile-time concurrency contracts: Clang Thread Safety Analysis macros and
// the annotated mutex/condvar wrappers every concurrent class in this repo
// uses (thread_pool, batcher, stats, registry, the weight-pack lifecycle of
// snn/pack.h).
//
// The locking discipline that a header comment can only *describe* — "fields
// guarded by mu_", "helper requires mu_ held" — becomes machine-checked here:
// under clang with -Wthread-safety (upgraded to an error by the
// TTFS_WERROR_THREAD_SAFETY CMake option and the static-analysis CI lane),
// reading a TTFS_GUARDED_BY field without its mutex, calling a
// TTFS_REQUIRES helper unlocked, or leaking a lock out of a scope is a
// compile error — every interleaving, not just the ones a TSan run happens
// to schedule. On GCC (the tier-1 toolchain) every macro expands to nothing
// and the wrappers are zero-cost inline forwards to the std primitives, so
// Release codegen is identical to the pre-annotation code.
//
// Usage pattern (see serve/batcher.h for the full worked example):
//
//   class Account {
//    public:
//     void deposit(int cents) {
//       const util::MutexLock lock{mu_};
//       balance_ += cents;   // OK: mu_ held via the scoped lock
//     }
//    private:
//     std::int64_t balance_locked() const TTFS_REQUIRES(mu_);  // callers lock
//     mutable util::Mutex mu_;
//     std::int64_t balance_ TTFS_GUARDED_BY(mu_) = 0;
//   };
//
// Condition-variable caveat: the analysis checks lambda bodies as separate
// functions, so a guarded field read inside a wait *predicate* lambda cannot
// see the caller's lock. Write waits as explicit loops instead —
//
//   while (!closed_ && queue_.empty()) cv_.wait(lock);
//
// — which is both TSA-clean and exactly what the predicate overload expands
// to anyway.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

// Clang exposes the analysis through GNU-style attributes; __has_attribute
// keeps ancient clangs and non-clang compilers (GCC builds the tier-1 lane)
// on the no-op path.
#if defined(__clang__) && defined(__has_attribute)
#define TTFS_THREAD_ANNOTATION_IMPL(x) __attribute__((x))
#else
#define TTFS_THREAD_ANNOTATION_IMPL(x)  // no-op outside clang
#endif

// A type that is a lockable capability ("mutex" names the capability kind in
// diagnostics).
#define TTFS_CAPABILITY(x) TTFS_THREAD_ANNOTATION_IMPL(capability(x))
// RAII type that acquires a capability at construction, releases at scope end.
#define TTFS_SCOPED_CAPABILITY TTFS_THREAD_ANNOTATION_IMPL(scoped_lockable)
// Data member readable/writable only with the named capability held.
#define TTFS_GUARDED_BY(x) TTFS_THREAD_ANNOTATION_IMPL(guarded_by(x))
// Pointer member whose *pointee* is guarded by the named capability.
#define TTFS_PT_GUARDED_BY(x) TTFS_THREAD_ANNOTATION_IMPL(pt_guarded_by(x))
// Function that must be called with the capability held (private *_locked
// helpers); the caller keeps holding it afterwards.
#define TTFS_REQUIRES(...) \
  TTFS_THREAD_ANNOTATION_IMPL(requires_capability(__VA_ARGS__))
#define TTFS_REQUIRES_SHARED(...) \
  TTFS_THREAD_ANNOTATION_IMPL(requires_shared_capability(__VA_ARGS__))
// Function that acquires / releases the capability itself (Mutex::lock and
// friends, scoped-lock constructors/destructors).
#define TTFS_ACQUIRE(...) TTFS_THREAD_ANNOTATION_IMPL(acquire_capability(__VA_ARGS__))
#define TTFS_RELEASE(...) TTFS_THREAD_ANNOTATION_IMPL(release_capability(__VA_ARGS__))
#define TTFS_TRY_ACQUIRE(...) \
  TTFS_THREAD_ANNOTATION_IMPL(try_acquire_capability(__VA_ARGS__))
// Function that must NOT be called with the capability held (would deadlock).
#define TTFS_EXCLUDES(...) TTFS_THREAD_ANNOTATION_IMPL(locks_excluded(__VA_ARGS__))
// Lock-ordering contract between two mutexes.
#define TTFS_ACQUIRED_BEFORE(...) \
  TTFS_THREAD_ANNOTATION_IMPL(acquired_before(__VA_ARGS__))
#define TTFS_ACQUIRED_AFTER(...) \
  TTFS_THREAD_ANNOTATION_IMPL(acquired_after(__VA_ARGS__))
// Function returning a reference to the named capability.
#define TTFS_RETURN_CAPABILITY(x) TTFS_THREAD_ANNOTATION_IMPL(lock_returned(x))
// Escape hatch for intentional protocol-based access (e.g. the double-checked
// weight-pack read in snn::LazyPack::get). Every use MUST carry a one-line
// justification comment naming the protocol that makes it safe — the dynamic
// TSan lane remains the empirical check for those few sites.
#define TTFS_NO_THREAD_SAFETY_ANALYSIS \
  TTFS_THREAD_ANNOTATION_IMPL(no_thread_safety_analysis)

namespace ttfs::util {

class CondVar;
class MutexLock;

// std::mutex with a capability identity the analysis can track. Prefer the
// scoped MutexLock; bare lock()/unlock() exist for the rare hand-over-hand
// pattern and are equally checked.
class TTFS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TTFS_ACQUIRE() { mu_.lock(); }
  void unlock() TTFS_RELEASE() { mu_.unlock(); }
  bool try_lock() TTFS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

// Scoped lock over util::Mutex — the std::lock_guard/std::unique_lock of the
// annotated world. unlock() supports the "release early, then notify" idiom;
// the destructor is a no-op if the lock was already released (the clang
// analysis models exactly this releasable-scoped-capability pattern).
class TTFS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TTFS_ACQUIRE(mu) : lock_{mu.mu_} {}
  ~MutexLock() TTFS_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Early release before the scope ends (e.g. drop the queue lock before
  // waking a consumer so it never wakes into a held mutex).
  void unlock() TTFS_RELEASE() { lock_.unlock(); }
  // Re-acquire after an early unlock().
  void lock() TTFS_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// Condition variable bound to util::Mutex via MutexLock. Deliberately has no
// predicate overloads: the analysis checks lambda bodies out of the calling
// context, so predicate reads of guarded fields would need blanket analysis
// suppressions. Callers write the canonical explicit loop instead (see the
// header comment), which keeps every guarded read visibly under the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  // `lock` must hold the mutex that guards the waited-on state (the usual
  // condition-variable contract; std::condition_variable enforces it at
  // runtime, the surrounding annotations enforce the state reads).
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(MutexLock& lock,
                            const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock, const std::chrono::duration<Rep, Period>& rel) {
    return cv_.wait_for(lock.lock_, rel);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace ttfs::util

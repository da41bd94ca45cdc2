#ifndef BRAID_COMMON_MUTEX_H_
#define BRAID_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace braid {

/// Annotated wrapper over std::mutex. Every mutex in `src/` goes through
/// this type (enforced by tools/braid_lint) so that Clang Thread Safety
/// Analysis sees every acquisition: fields are declared
/// `BRAID_GUARDED_BY(mu_)`, helpers that expect the lock are declared
/// `BRAID_REQUIRES(mu_)`, and the `-Wthread-safety -Werror` CI job turns
/// violations into build breaks.
class BRAID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BRAID_ACQUIRE() { mu_.lock(); }
  void Unlock() BRAID_RELEASE() { mu_.unlock(); }
  bool TryLock() BRAID_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Documents (to the analysis and the reader) that the caller knows the
  /// lock is held on this path without holding a scoped lock object.
  void AssertHeld() const BRAID_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for `braid::Mutex`, annotated as a scoped capability so the
/// analysis tracks the critical section's extent.
class BRAID_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) BRAID_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() BRAID_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with `braid::Mutex`. There is deliberately no
/// predicate-lambda overload: the analysis cannot see a capability across
/// a lambda boundary, so waits are written as explicit loops in the
/// function that holds the lock —
///
///   MutexLock lock(&mu_);
///   while (!condition_over_guarded_fields) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, and reacquires `mu`
  /// before returning. Spurious wakeups are possible; always re-test the
  /// condition in a loop.
  void Wait(Mutex& mu) BRAID_REQUIRES(mu) BRAID_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Like Wait but gives up after `timeout`; returns false on timeout.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      BRAID_REQUIRES(mu) BRAID_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool notified = cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
    lock.release();
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace braid

#endif  // BRAID_COMMON_MUTEX_H_

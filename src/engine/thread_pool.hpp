#pragma once
// Persistent worker pool for the ExecutionEngine.
//
// The pool exposes exactly one primitive, parallel_for(n, fn): run fn(i) for
// every i in [0, n) across the workers plus the calling thread, blocking
// until all indices are done. Workers park on a condition variable between
// jobs, so the pool amortises thread start-up across every vector op of a
// workload instead of paying it per call.
//
// Indices are handed out through a shared cursor under mutex_ (dynamic
// scheduling). Determinism of the engine does NOT depend on which thread
// runs which index: each index owns a disjoint slice of macros/output, so
// any schedule produces identical results.
//
// Lock discipline is annotated for clang Thread Safety Analysis (see
// common/thread_annotations.hpp): every job field is GUARDED_BY(mutex_),
// proven at compile time by the CI `thread-safety` job.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace bpim::engine {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the calling thread;
  /// 0 means std::thread::hardware_concurrency(). A pool of 1 runs every
  /// job inline. Workers start lazily on the first parallel_for that can
  /// use them, so short-lived pools that never fan out cost nothing.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + calling thread), whether or not the
  /// workers have started yet.
  [[nodiscard]] std::size_t thread_count() const { return target_threads_; }

  /// Run fn(i) for all i in [0, n); returns when every index has finished.
  /// The calling thread participates. The first exception thrown by any
  /// fn(i) is rethrown on the caller after the job drains. Not reentrant.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      BPIM_EXCLUDES(mutex_);

 private:
  void worker_loop() BPIM_EXCLUDES(mutex_);
  /// Pull indices from the current job until exhausted.
  void drain() BPIM_EXCLUDES(mutex_);
  /// Spawn the workers (first fan-out only; caller-thread serialised).
  void start_workers();

  std::size_t target_threads_ = 1;
  /// Caller-thread only (lazy start, dtor join); for a server's lane pool that
  /// is one dispatcher at a time, the scheduler or a submitting thread holding the token.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar work_cv_;  ///< wakes workers for a new job
  CondVar done_cv_;  ///< wakes the caller when a job drains
  const std::function<void(std::size_t)>* fn_ BPIM_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_size_ BPIM_GUARDED_BY(mutex_) = 0;
  std::size_t next_index_ BPIM_GUARDED_BY(mutex_) = 0;
  std::size_t busy_ BPIM_GUARDED_BY(mutex_) = 0;  ///< workers still inside the current job
  std::uint64_t epoch_ BPIM_GUARDED_BY(mutex_) = 0;  ///< bumped per job so workers never re-run one
  bool stop_ BPIM_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ BPIM_GUARDED_BY(mutex_);
};

}  // namespace bpim::engine

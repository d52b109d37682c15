#pragma once
// Work-sharing thread pool and `parallel_for`.
//
// The training and evaluation kernels (GEMM, attention, batched logit
// evaluation) parallelise over independent row/batch ranges. The pool is a
// classic condition-variable task queue; `parallel_for` chunks an index
// range across workers and joins before returning, so callers never observe
// partially-applied updates. On single-core machines the pool degrades to
// serial execution in the calling thread with no locking overhead.
//
// One level of parallelism: a `parallel_for` issued from a worker thread of
// *any* pool runs its whole range inline on that thread. An eval question
// or a serve request running as a pool task therefore keeps its kernels on
// its own core, from the fork to the last logit, instead of splitting each
// gemv into sub-chunks that queue behind the other questions; and a pool
// whose every worker nests a `parallel_for` cannot deadlock waiting on
// sub-chunks nobody is free to run. Threads that are not pool workers (the
// main thread, the decode engine's thread) fan out as before. Kernels split
// only along independent output rows, so the chunking never changes a bit
// of any result.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace astromlab::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency - 1
  /// (the caller participates in parallel_for, so total parallelism is
  /// num_threads + 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Total parallelism parallel_for can exploit: the workers plus the
  /// calling thread. Kernels use this to size per-task tile grains.
  std::size_t parallelism() const { return workers_.size() + 1; }

  /// Enqueues a task; returns immediately. A throwing task does not kill
  /// the worker: the first exception is captured and rethrown from the
  /// next `wait_idle()`. With zero workers the task runs inline, with the
  /// same deferred-error semantics.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished, then rethrows the
  /// first exception any of them threw since the last wait_idle().
  void wait_idle();

  /// Runs `body(begin, end)` over [0, n) split into contiguous chunks,
  /// using the workers plus the calling thread. Blocks until complete.
  /// `grain` is the minimum chunk size worth parallelising. Called from a
  /// worker thread of any pool, it runs `body(0, n)` inline (counted as
  /// `pool.parallel_for_inline` when the range would have split). Every
  /// chunk runs to completion even when one throws; the first exception is
  /// rethrown after the join, so callers never observe a half-joined
  /// range or a deadlocked pool.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 1);

  /// Process-wide shared pool (lazily constructed, sized from hardware).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;  ///< first failure since last wait_idle()
};

/// Convenience wrapper over the global pool. `body(i)` is invoked once per
/// index; use the range overload for cache-friendly chunk processing.
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body,
                       std::size_t grain = 64);

/// Range form: `body(begin, end)` per chunk on the global pool.
void parallel_for_range(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& body,
                        std::size_t grain = 64);

}  // namespace astromlab::util

#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace astromlab::util {
namespace {

metrics::Counter& tasks_submitted_counter() {
  static metrics::Counter& c = metrics::registry().counter("pool.tasks_submitted");
  return c;
}

metrics::Counter& tasks_inline_counter() {
  static metrics::Counter& c = metrics::registry().counter("pool.tasks_inline");
  return c;
}

metrics::Counter& parallel_for_inline_counter() {
  static metrics::Counter& c = metrics::registry().counter("pool.parallel_for_inline");
  return c;
}

/// Set for the lifetime of every pool worker thread (of any pool).
thread_local bool t_is_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  parallel_for_inline_counter();  // registered up front so exports show 0, not nothing
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw > 1 ? hw - 1 : 0;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Serial fallback: run inline so the pool is usable on 1-core hosts.
    // Errors defer to wait_idle(), matching the threaded path's semantics.
    tasks_inline_counter().add();
    try {
      const trace::Span span("pool.task", "pool");
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    return;
  }
  tasks_submitted_counter().add();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  t_is_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must neither escape the worker thread (std::terminate)
    // nor leak its in_flight_ count (wait_idle deadlock): capture it here
    // and decrement unconditionally under the lock.
    std::exception_ptr error;
    try {
      const trace::Span span("pool.task", "pool");
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = std::move(error);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& body,
                              std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t chunks = std::min(workers_.size() + 1, max_chunks);
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  if (t_is_pool_worker) {
    // One level of parallelism: a pool task is already one core's worth of
    // work, so splitting it again only queues sub-chunks behind the very
    // tasks that are waiting on them.
    parallel_for_inline_counter().add();
    body(0, n);
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  // Join state lives on this stack frame. Workers touch it only under
  // done_mutex, and the caller cannot leave the wait below before the last
  // worker has released that mutex, so no worker outlives the state.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks - 1;  // guarded by done_mutex
  std::exception_ptr chunk_error;      // first failing chunk wins, guarded by done_mutex

  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    submit([&, begin, end] {
      // Capture locally so the join counter always reaches zero; the
      // error is rethrown below after every chunk has finished.
      std::exception_ptr error;
      try {
        if (begin < end) body(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (error && !chunk_error) chunk_error = std::move(error);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  // Calling thread handles the first chunk.
  try {
    body(0, std::min(n, chunk_size));
  } catch (...) {
    std::lock_guard<std::mutex> lock(done_mutex);
    if (!chunk_error) chunk_error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (chunk_error) {
    std::exception_ptr error = std::exchange(chunk_error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body,
                       std::size_t grain) {
  ThreadPool::global().parallel_for(
      n,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      grain);
}

void parallel_for_range(std::size_t n,
                        const std::function<void(std::size_t, std::size_t)>& body,
                        std::size_t grain) {
  ThreadPool::global().parallel_for(n, body, grain);
}

}  // namespace astromlab::util

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace astromlab::util {
namespace {

TEST(ThreadPool, SubmitRunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  // Explicitly-sized zero pools (1-core hosts) execute inline.
  ThreadPool pool(0);
  if (pool.worker_count() == 0) {
    int value = 0;
    pool.submit([&value] { value = 42; });
    EXPECT_EQ(value, 42);
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(
      1000,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      16);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallRangeStaysSerial) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(
      3,
      [&](std::size_t begin, std::size_t end) {
        ++calls;
        EXPECT_LE(end - begin, 3u);
      },
      100);  // grain larger than range -> single chunk
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::atomic<long long> total{0};
  pool.parallel_for(
      kN,
      [&](std::size_t begin, std::size_t end) {
        long long local = 0;
        for (std::size_t i = begin; i < end; ++i) local += static_cast<long long>(i);
        total.fetch_add(local, std::memory_order_relaxed);
      },
      64);
  EXPECT_EQ(total.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(GlobalHelpers, ParallelForEachVisitsEveryIndex) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for_each(257, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(GlobalHelpers, RangeFormMatchesElementForm) {
  std::vector<int> a(500, 0), b(500, 0);
  parallel_for_each(500, [&](std::size_t i) { a[i] = static_cast<int>(i) * 2; });
  parallel_for_range(500, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) b[i] = static_cast<int>(i) * 2;
  });
  EXPECT_EQ(a, b);
}

TEST(ThreadPool, ThrowingTaskSurfacesFromWaitIdleWithoutTerminating) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::runtime_error("task 7 exploded");
    });
  }
  // The throwing task must not escape a worker thread (std::terminate) nor
  // leak the in-flight count (deadlocked wait_idle); the first error is
  // rethrown here instead.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);

  // The error slot was consumed: the pool stays usable afterwards.
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ZeroWorkerPoolPropagatesFromWaitIdleToo) {
  ThreadPool pool(0);
  if (pool.worker_count() != 0) GTEST_SKIP() << "host forced worker threads";
  pool.submit([] { throw std::logic_error("inline failure"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
}

TEST(ThreadPool, ParallelForPropagatesBodyExceptionWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t begin, std::size_t) {
                     chunks.fetch_add(1, std::memory_order_relaxed);
                     if (begin == 0) throw std::runtime_error("chunk failed");
                   },
                   16),
               std::runtime_error);
  // And the pool still works for the next wave.
  std::atomic<int> counter{0};
  pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(2);
  for (int wave = 0; wave < 5; ++wave) {
    std::atomic<int> counter{0};
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(counter.load(), 64);
  }
}

TEST(ThreadPool, ParallelForFromAPoolTaskRunsOnThatTasksThread) {
  // One level of parallelism: a pool task (an eval question, a serve
  // request) keeps its kernels on its own thread, whichever pool the
  // nested parallel_for targets.
  ThreadPool outer(2);
  ThreadPool inner(3);
  metrics::Counter& inline_count = metrics::registry().counter("pool.parallel_for_inline");
  const std::uint64_t before = inline_count.value();
  std::atomic<int> mismatched{0};
  std::atomic<int> chunks{0};
  for (int task = 0; task < 8; ++task) {
    outer.submit([&] {
      const std::thread::id self = std::this_thread::get_id();
      for (ThreadPool* pool : {&inner, &outer, &ThreadPool::global()}) {
        pool->parallel_for(
            1000,
            [&](std::size_t begin, std::size_t end) {
              chunks.fetch_add(1);
              if (std::this_thread::get_id() != self || begin != 0 || end != 1000) {
                mismatched.fetch_add(1);
              }
            },
            1);
      }
    });
  }
  outer.wait_idle();
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(chunks.load(), 8 * 3);
  if (ThreadPool::global().worker_count() > 0) {
    EXPECT_EQ(inline_count.value() - before, 8u * 3u);
  } else {
    EXPECT_EQ(inline_count.value() - before, 8u * 2u);
  }
}

TEST(ThreadPool, EveryWorkerNestingParallelForCompletes) {
  // Every worker is busy in a task that issues parallel_for on the same
  // pool. Queued sub-chunks would have no free worker to run them; the
  // nested calls must complete inline instead of deadlocking.
  constexpr int kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::atomic<int> entered{0};
  std::atomic<long long> total{0};
  for (int task = 0; task < kWorkers; ++task) {
    pool.submit([&] {
      entered.fetch_add(1);
      while (entered.load() < kWorkers) std::this_thread::yield();
      pool.parallel_for(
          4096,
          [&](std::size_t begin, std::size_t end) {
            total.fetch_add(static_cast<long long>(end - begin));
          },
          1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), kWorkers * 4096LL);
}

TEST(ThreadPool, BackToBackSmallParallelForsFromSeveralCallers) {
  // Many short joins just above the grain: every call splits into two
  // chunks, so the last worker's join signal races the caller's return on
  // every iteration. The join state lives on the caller's stack, and the
  // next call reuses that stack. More threads than cores make a worker
  // likely to be preempted inside its join signal. Under TSan, a join that
  // lets a worker lock the caller's mutex after the caller returned is
  // reported here on every run ("use of an invalid mutex" and a data race
  // on the reused stack); a plain build only rarely crashes on it.
  constexpr std::size_t kGrain = 8;
  constexpr int kCallers = 6;
  constexpr int kIterations = 20000;
  ThreadPool pool(3);
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::atomic<std::size_t> covered{0};
        pool.parallel_for(
            kGrain + 1,
            [&](std::size_t begin, std::size_t end) {
              // Chunks of varying length, so the caller's chunk often ends
              // just as the worker's does: the moment the race needs.
              const std::size_t spin = (static_cast<std::size_t>(i) * (begin + 3)) % 64;
              for (std::size_t k = 0; k < spin; ++k) covered.fetch_add(0);
              covered.fetch_add(end - begin);
            },
            kGrain);
        if (covered.load() != kGrain + 1) wrong.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace astromlab::util

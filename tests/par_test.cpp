// fsml::par unit tests: the determinism contract of the host-thread layer.
// Scheduling may vary freely; result placement, exception choice, and
// completion must not. These tests are the primary TSan target (see
// FSML_SANITIZE in the top-level CMakeLists).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "util/cli.hpp"

namespace {

using namespace fsml;

TEST(ThreadPool, RunsSubmittedJobsBeforeDestruction) {
  std::atomic<int> count{0};
  {
    par::ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { ++count; });
  }  // the destructor drains the queue and joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  int ran = 0;
  pool.submit([&ran] { ran = 1; });  // no worker exists: must run inline
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, JobsRuleCountsTheCallingThread) {
  const std::size_t hw = par::ThreadPool::hardware_workers();
  EXPECT_EQ(par::resolve_jobs(0), hw);
  EXPECT_EQ(par::resolve_jobs(3), 3u);
  EXPECT_EQ(par::pool_workers(0), hw - 1);
  EXPECT_EQ(par::pool_workers(1), 0u);  // serial: the caller alone
  EXPECT_EQ(par::pool_workers(4), 3u);

  const char* none[] = {"prog"};
  EXPECT_EQ(par::cli_jobs(util::Cli(1, none)), hw);
  const char* three[] = {"prog", "--jobs=3"};
  EXPECT_EQ(par::cli_jobs(util::Cli(2, three)), 3u);
  const char* negative[] = {"prog", "--jobs=-1"};
  EXPECT_THROW(par::cli_jobs(util::Cli(2, negative)), std::runtime_error);
}

TEST(ThreadPool, OnWorkerThreadDistinguishesWorkersFromCaller) {
  par::ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<bool> seen_on_worker{false};
  par::parallel_for(pool, 64, [&](std::size_t) {
    if (pool.on_worker_thread()) seen_on_worker = true;
  });
  // With 64 tiny chunks and 2 workers, at least one chunk lands on a
  // worker in practice; the caller itself must still report false.
  EXPECT_FALSE(pool.on_worker_thread());
  (void)seen_on_worker;  // scheduling-dependent; presence is not asserted
}

TEST(ParallelFor, EmptyRangeReturnsImmediately) {
  par::ThreadPool pool(4);
  int calls = 0;
  par::parallel_for(pool, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const std::vector<int> out =
      par::parallel_transform(pool, std::vector<int>{}, [](int v) { return v; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelFor, SingleJob) {
  par::ThreadPool pool(4);
  std::atomic<int> calls{0};
  par::parallel_for(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  par::ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(pool, n, [&](std::size_t i) { ++hits[i]; }, 7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, MoreJobsThanWorkers) {
  par::ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  par::parallel_for(pool, 1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2u);
}

TEST(ParallelTransform, PreservesInputOrdering) {
  par::ThreadPool pool(4);
  std::vector<int> in(500);
  std::iota(in.begin(), in.end(), 0);
  const std::vector<std::string> out =
      par::parallel_transform(pool, in, [](int v) {
        // Uneven per-item latency so completion order scrambles.
        if (v % 17 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::to_string(v * 3);
      });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], std::to_string(in[i] * 3));
}

TEST(ParallelTransform, ResultsIdenticalForAnyPoolSize) {
  std::vector<int> in(256);
  std::iota(in.begin(), in.end(), 1);
  const auto square = [](int v) { return v * v; };
  par::ThreadPool serial(0), small(2), big(8);
  const auto a = par::parallel_transform(serial, in, square);
  const auto b = par::parallel_transform(small, in, square);
  const auto c = par::parallel_transform(big, in, square, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(ParallelFor, SingleFailurePropagatesOriginalException) {
  par::ThreadPool pool(4);
  // Exactly one index fails: the original exception surfaces unwrapped,
  // with its type and message intact.
  try {
    par::parallel_for(pool, 200, [](std::size_t i) {
      if (i == 37) throw std::invalid_argument("failed at 37");
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "failed at 37");
  }
}

TEST(ParallelFor, MultipleFailuresAggregateDeterministically) {
  par::ThreadPool pool(4);
  // Several indices fail; the aggregate names the failure count and the
  // lowest failing indices regardless of which one failed first in time.
  for (int round = 0; round < 5; ++round) {
    try {
      par::parallel_for(pool, 200, [](std::size_t i) {
        if (i == 37 || i == 73 || i == 150 || i == 151)
          throw std::runtime_error("failed at " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const par::ParallelError& e) {
      EXPECT_EQ(e.failed_count(), 4u);
      EXPECT_EQ(e.total_count(), 200u);
      EXPECT_STREQ(e.what(),
                   "4 of 200 parallel jobs failed; first failures:"
                   " [37] failed at 37; [73] failed at 73;"
                   " [150] failed at 150;");
    }
  }
}

TEST(ParallelFor, ExceptionDoesNotAbortOtherIndices) {
  par::ThreadPool pool(3);
  const std::size_t n = 300;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(par::parallel_for(pool, n,
                                 [&](std::size_t i) {
                                   ++hits[i];
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // No cancellation: every index still ran exactly once (determinism of
  // side effects and of which error surfaces).
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, NestedSubmitIsSafe) {
  // An inner parallel_for issued from pool workers must not deadlock even
  // when the pool is fully busy with outer jobs; nested calls run inline.
  par::ThreadPool pool(2);
  std::atomic<int> count{0};
  par::parallel_for(pool, 8, [&](std::size_t) {
    par::parallel_for(pool, 8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, NestedTransformReturnsOrderedResults) {
  par::ThreadPool pool(3);
  std::vector<int> in(16);
  std::iota(in.begin(), in.end(), 0);
  const auto out = par::parallel_transform(pool, in, [&](int outer) {
    const auto inner =
        par::parallel_transform(pool, in, [outer](int v) { return outer + v; });
    return std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 16 + 120);
}

}  // namespace

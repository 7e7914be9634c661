// fsml::par::supervise + fsml::fault unit tests: the reliability contract
// on top of the deterministic ThreadPool layer. Retry/quarantine/deadline
// outcomes must be pure functions of the fault schedule, never of host
// scheduling — several tests assert identical outcomes across pool sizes.
// These run under TSan in CI alongside par_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "par/supervisor.hpp"
#include "par/thread_pool.hpp"
#include "util/deadline.hpp"

namespace {

namespace par = fsml::par;
namespace fault = fsml::fault;
namespace util = fsml::util;
using Clock = std::chrono::steady_clock;

TEST(Supervisor, AllSucceedFirstAttempt) {
  par::ThreadPool pool(3);
  const auto out = par::supervise(
      pool, 100, 3, [](std::size_t i, int) { return i * i; });
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.retried_attempts, 0u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_EQ(*out.results[i], i * i);
  }
}

TEST(Supervisor, RetriesTransientFailures) {
  par::ThreadPool pool(3);
  // Every third index fails on its first two attempts, then succeeds.
  const auto out =
      par::supervise(pool, 30, 3, [](std::size_t i, int attempt) {
        if (i % 3 == 0 && attempt <= 2)
          throw std::runtime_error("transient");
        return static_cast<int>(i);
      });
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.retried_attempts, 20u);  // 10 failing indices x 2 retries
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_EQ(*out.results[i], static_cast<int>(i));
}

TEST(Supervisor, QuarantinesPersistentFailures) {
  par::ThreadPool pool(4);
  const auto out = par::supervise(pool, 50, 2, [](std::size_t i, int) -> int {
    if (i == 7 || i == 31) throw std::runtime_error("always broken");
    return static_cast<int>(i);
  });
  ASSERT_EQ(out.failures.size(), 2u);
  EXPECT_EQ(out.failures[0].index, 7u);   // sorted by index
  EXPECT_EQ(out.failures[1].index, 31u);
  EXPECT_EQ(out.failures[0].attempts, 2);
  EXPECT_FALSE(out.failures[0].timed_out);
  EXPECT_EQ(out.failures[0].error, "always broken");
  EXPECT_FALSE(out.results[7].has_value());
  EXPECT_FALSE(out.results[31].has_value());
  // The sweep completed around the quarantined jobs.
  for (std::size_t i = 0; i < 50; ++i) {
    if (i != 7 && i != 31) {
      EXPECT_EQ(*out.results[i], static_cast<int>(i));
    }
  }
}

TEST(Supervisor, QuarantineDeterministicAcrossPoolSizes) {
  const auto run_with = [](std::size_t workers) {
    par::ThreadPool pool(workers);
    const auto out =
        par::supervise(pool, 60, 2, [](std::size_t i, int attempt) -> int {
          if (i % 7 == 3) throw std::runtime_error("persistent");
          if (i % 5 == 0 && attempt == 1)
            throw std::runtime_error("transient");
          return static_cast<int>(i * 3);
        });
    std::vector<std::size_t> quarantined;
    for (const par::JobFailure& f : out.failures)
      quarantined.push_back(f.index);
    return std::make_pair(quarantined, out.retried_attempts);
  };
  const auto serial = run_with(0);
  const auto small = run_with(2);
  const auto big = run_with(8);
  EXPECT_EQ(serial, small);
  EXPECT_EQ(small, big);
}

TEST(Supervisor, DeadlineCancelsHangingJob) {
  par::ThreadPool pool(2);
  fault::FaultPlan plan;
  plan.hang_keys = {"3"};
  const fault::FaultInjector injector(plan);
  const auto out =
      par::supervise(pool, 8, 1, [&](std::size_t i, int) -> int {
        const std::string key = std::to_string(i);
        if (injector.should_hang(key))
          injector.hang(Clock::now() + std::chrono::milliseconds(30));
        return static_cast<int>(i);
      });
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].index, 3u);
  EXPECT_TRUE(out.failures[0].timed_out);
  EXPECT_FALSE(out.results[3].has_value());
  EXPECT_EQ(*out.results[7], 7);
}

TEST(Supervisor, NonRetryableStopsSweepAndRethrows) {
  par::ThreadPool pool(2);
  std::atomic<int> calls_at_five{0};
  EXPECT_THROW(par::supervise(pool, 200, 3,
                              [&](std::size_t i, int) -> int {
                                if (i == 5) {
                                  ++calls_at_five;
                                  throw fault::InjectedAbort("injected crash");
                                }
                                return 0;
                              }),
               fault::InjectedAbort);
  // Fatal errors are never retried.
  EXPECT_EQ(calls_at_five.load(), 1);
}

TEST(Supervisor, LogicErrorIsFatalNotQuarantined) {
  par::ThreadPool pool(2);
  std::atomic<int> calls{0};
  EXPECT_THROW(par::supervise(pool, 20, 3,
                              [&](std::size_t i, int) -> int {
                                if (i == 2) {
                                  ++calls;
                                  throw std::logic_error("programming bug");
                                }
                                return 0;
                              }),
               std::logic_error);
  EXPECT_EQ(calls.load(), 1);  // bugs are not retried either
}

TEST(Supervisor, ConfigValidateRejectsBadValues) {
  par::ThreadPool pool(0);
  for (const int max_attempts : {0, 101}) {
    EXPECT_THROW(par::supervise(pool, 1, max_attempts,
                                [](std::size_t, int) { return 0; }),
                 std::runtime_error)
        << max_attempts;
  }
}

// A deadline that ends one attempt is that attempt's alone: the retry runs
// and its result counts.
TEST(Supervisor, AttemptTimeCancelStillRetries) {
  par::ThreadPool pool(2);
  std::atomic<int> calls{0};
  const auto out = par::supervise(pool, 1, 2, [&](std::size_t, int attempt) {
    ++calls;
    if (attempt == 1) throw util::DeadlineExceeded();
    return 7;
  });
  EXPECT_EQ(calls.load(), 2);
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.retried_attempts, 1u);
  EXPECT_EQ(*out.results[0], 7);
}

// ---- fault-injection determinism -------------------------------------------

TEST(Fault, InertByDefault) {
  fault::FaultInjector injector;
  EXPECT_FALSE(injector.plan().any());
  EXPECT_NO_THROW(injector.maybe_throw("site", "key", 1));
  EXPECT_FALSE(injector.should_hang("key"));
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW(injector.count_completion());
  EXPECT_EQ(injector.corrupt("hello"), "hello");
}

TEST(Fault, ThrowDecisionsArePureInSiteKeyAttempt) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.throw_rate = 0.5;
  const fault::FaultInjector a(plan), b(plan);
  int thrown = 0;
  for (int k = 0; k < 200; ++k) {
    const std::string key = "cell-" + std::to_string(k);
    const bool ta = [&] {
      try {
        a.maybe_throw("collect.run", key, 1);
        return false;
      } catch (const fault::InjectedFault&) {
        return true;
      }
    }();
    const bool tb = [&] {
      try {
        b.maybe_throw("collect.run", key, 1);
        return false;
      } catch (const fault::InjectedFault&) {
        return true;
      }
    }();
    EXPECT_EQ(ta, tb) << key;  // same plan -> same schedule
    if (ta) ++thrown;
    // Attempts past throw_attempts always succeed (transient faults).
    EXPECT_NO_THROW(a.maybe_throw("collect.run", key, plan.throw_attempts + 1));
  }
  // rate 0.5 over 200 keys: comfortably inside [60, 140].
  EXPECT_GT(thrown, 60);
  EXPECT_LT(thrown, 140);
}

TEST(Fault, HangKeysHangOnEveryAttempt) {
  fault::FaultPlan plan;
  plan.hang_keys = {"prog/64/3/good/linear/0"};
  const fault::FaultInjector injector(plan);
  EXPECT_TRUE(injector.should_hang("prog/64/3/good/linear/0"));
  EXPECT_FALSE(injector.should_hang("other"));
}

TEST(Fault, HangUnwindsAtItsDeadline) {
  fault::FaultPlan plan;
  plan.hang_keys = {"k"};
  const fault::FaultInjector injector(plan);
  const auto deadline = Clock::now() + std::chrono::milliseconds(20);
  EXPECT_THROW(injector.hang(deadline), util::DeadlineExceeded);
  EXPECT_GE(Clock::now(), deadline);
}

TEST(Fault, AbortAfterCountsCompletions) {
  fault::FaultPlan plan;
  plan.abort_after = 3;
  fault::FaultInjector injector(plan);
  EXPECT_NO_THROW(injector.count_completion());
  EXPECT_NO_THROW(injector.count_completion());
  EXPECT_THROW(injector.count_completion(), fault::InjectedAbort);
}

TEST(Fault, CorruptFlipsExactlyOneByteDeterministically) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_artifacts = true;
  const fault::FaultInjector injector(plan);
  const std::string original(256, 'x');
  const std::string once = injector.corrupt(original);
  const std::string twice = injector.corrupt(original);
  EXPECT_EQ(once, twice);  // deterministic
  ASSERT_EQ(once.size(), original.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i)
    if (once[i] != original[i]) ++diffs;
  EXPECT_EQ(diffs, 1u);
}

}  // namespace

// fsml::par::Supervisor + fsml::fault unit tests: the reliability contract
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
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "par/supervisor.hpp"
#include "par/thread_pool.hpp"

namespace {

namespace par = fsml::par;
namespace fault = fsml::fault;

par::SupervisorConfig fast_config(int max_attempts) {
  par::SupervisorConfig config;
  config.max_attempts = max_attempts;
  config.backoff_base = std::chrono::milliseconds(0);
  config.backoff_cap = std::chrono::milliseconds(0);
  return config;
}

TEST(Supervisor, AllSucceedFirstAttempt) {
  par::ThreadPool pool(3);
  par::Supervisor supervisor(pool, fast_config(3));
  const auto out = supervisor.run(
      100, [](std::size_t i, par::CancelToken&, int) { return i * i; });
  ASSERT_TRUE(out.all_ok());
  EXPECT_EQ(out.retried_attempts, 0u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(out.results[i].has_value());
    EXPECT_EQ(*out.results[i], i * i);
  }
}

TEST(Supervisor, RetriesTransientFailures) {
  par::ThreadPool pool(3);
  par::Supervisor supervisor(pool, fast_config(3));
  // Every third index fails on its first two attempts, then succeeds.
  const auto out = supervisor.run(
      30, [](std::size_t i, par::CancelToken&, int attempt) {
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
  par::Supervisor supervisor(pool, fast_config(2));
  const auto out = supervisor.run(
      50, [](std::size_t i, par::CancelToken&, int) -> int {
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
  for (std::size_t i = 0; i < 50; ++i)
    if (i != 7 && i != 31) EXPECT_EQ(*out.results[i], static_cast<int>(i));
}

TEST(Supervisor, QuarantineDeterministicAcrossPoolSizes) {
  const auto run_with = [](std::size_t workers) {
    par::ThreadPool pool(workers);
    par::Supervisor supervisor(pool, fast_config(2));
    const auto out = supervisor.run(
        60, [](std::size_t i, par::CancelToken&, int attempt) -> int {
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
  par::SupervisorConfig config = fast_config(1);
  config.deadline = std::chrono::milliseconds(30);
  par::Supervisor supervisor(pool, config);
  const auto out = supervisor.run(
      8, [](std::size_t i, par::CancelToken& token, int) -> int {
        if (i == 3) {
          // Cooperative hang: spins until the watchdog flips the token.
          while (!token.cancelled())
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          token.poll();  // throws CancelledError
        }
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
  par::Supervisor supervisor(pool, fast_config(3));
  std::atomic<int> calls_at_five{0};
  EXPECT_THROW(
      supervisor.run(200,
                     [&](std::size_t i, par::CancelToken&, int) -> int {
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
  par::Supervisor supervisor(pool, fast_config(3));
  std::atomic<int> calls{0};
  EXPECT_THROW(supervisor.run(20,
                              [&](std::size_t i, par::CancelToken&,
                                  int) -> int {
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
  par::SupervisorConfig config;
  config.max_attempts = 0;
  EXPECT_THROW(par::Supervisor(pool, config)
                   .run(1, [](std::size_t, par::CancelToken&, int) {
                     return 0;
                   }),
               std::runtime_error);
  config = {};
  config.backoff_base = std::chrono::milliseconds(10);
  config.backoff_cap = std::chrono::milliseconds(5);
  EXPECT_THROW(par::Supervisor(pool, config)
                   .run(1, [](std::size_t, par::CancelToken&, int) {
                     return 0;
                   }),
               std::runtime_error);
}

// A watchdog-style cancel *during* a failed attempt is cleared before the
// retry, so a transient timeout still gets its retry.
TEST(Supervisor, AttemptTimeCancelStillRetries) {
  par::ThreadPool pool(2);
  par::Supervisor supervisor(pool, fast_config(2));
  std::atomic<int> calls{0};
  const auto out = supervisor.run(
      1, [&](std::size_t, par::CancelToken& token, int attempt) -> int {
        ++calls;
        if (attempt == 1) {
          token.cancel();  // as the watchdog would on a deadline
          throw par::CancelledError();
        }
        EXPECT_FALSE(token.cancelled()) << "retry started with a stale cancel";
        return 7;
      });
  EXPECT_EQ(calls.load(), 2);
  ASSERT_TRUE(out.all_ok());
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

TEST(Fault, HangUnwindsWhenTokenCancelled) {
  fault::FaultPlan plan;
  plan.hang_keys = {"k"};
  const fault::FaultInjector injector(plan);
  par::CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  EXPECT_THROW(injector.hang(token), par::CancelledError);
  canceller.join();
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

// fsml::fault stall / overflow injection tests (the chaos sites added for
// the serve drills). The purity contract is the whole point: whether a
// (site, key, attempt) stalls or overflows is a pure function of the plan
// seed — never of call order, injector instance, or host thread — because
// the serve drill's bit-identical-across---jobs guarantee rests on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"

namespace {

namespace fault = fsml::fault;

fault::FaultPlan stall_plan(double rate, std::uint64_t steps,
                            std::uint64_t seed = 7) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.stall_rate = rate;
  plan.stall_steps = steps;
  return plan;
}

TEST(FaultStalls, DefaultPlanIsInert) {
  const fault::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  const fault::FaultInjector injector(plan);
  for (int k = 0; k < 50; ++k) {
    EXPECT_EQ(injector.stall_for("site", std::to_string(k), 1), 0u);
    EXPECT_FALSE(injector.should_overflow("site", std::to_string(k), 1));
  }
}

TEST(FaultStalls, RateOneAlwaysStallsForConfiguredSteps) {
  const fault::FaultInjector injector(stall_plan(1.0, 6));
  for (int k = 0; k < 50; ++k)
    EXPECT_EQ(injector.stall_for("serve.dequeue", std::to_string(k), 1), 6u);
}

TEST(FaultStalls, ZeroStepsDisablesEvenAtRateOne) {
  const fault::FaultPlan plan = stall_plan(1.0, 0);
  EXPECT_FALSE(plan.any());
  const fault::FaultInjector injector(plan);
  EXPECT_EQ(injector.stall_for("serve.dequeue", "0", 1), 0u);
}

TEST(FaultStalls, PureInSeedSiteKeyAttempt) {
  const fault::FaultInjector a(stall_plan(0.4, 3, 99));
  const fault::FaultInjector b(stall_plan(0.4, 3, 99));
  bool any_stalled = false, any_clean = false;
  for (int key = 0; key < 200; ++key) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const std::uint64_t draw_a =
          a.stall_for("serve.client", std::to_string(key), attempt);
      // Same (seed, site, key, attempt) — identical across instances, and
      // across *call order* (b is queried after a's full sweep below too).
      EXPECT_EQ(draw_a,
                b.stall_for("serve.client", std::to_string(key), attempt));
      (draw_a > 0 ? any_stalled : any_clean) = true;
    }
  }
  EXPECT_TRUE(any_stalled);
  EXPECT_TRUE(any_clean);
  // Different coordinates give independent draws: site, key and attempt
  // each re-key the hash.
  const std::uint64_t base = a.stall_for("serve.client", "17", 1);
  bool differs = false;
  differs |= a.stall_for("serve.dequeue", "17", 1) != base;
  differs |= a.stall_for("serve.client", "18", 1) != base;
  differs |= a.stall_for("serve.client", "17", 2) != base;
  EXPECT_TRUE(differs);
}

TEST(FaultStalls, CrossThreadAgreement) {
  const fault::FaultInjector injector(stall_plan(0.5, 4, 123));
  std::vector<std::uint64_t> serial(256);
  for (int k = 0; k < 256; ++k)
    serial[static_cast<std::size_t>(k)] =
        injector.stall_for("site", std::to_string(k), 1);

  std::vector<std::uint64_t> threaded(256);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&, t] {
      for (int k = t; k < 256; k += 4)
        threaded[static_cast<std::size_t>(k)] =
            injector.stall_for("site", std::to_string(k), 1);
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(serial, threaded);
}

TEST(FaultOverflow, RateOneAlwaysOverflows) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.overflow_rate = 1.0;
  EXPECT_TRUE(plan.any());
  const fault::FaultInjector injector(plan);
  for (int k = 0; k < 50; ++k)
    EXPECT_TRUE(injector.should_overflow("serve.enqueue",
                                         std::to_string(k), 1));
}

TEST(FaultOverflow, PureInSeedSiteKeyAttempt) {
  fault::FaultPlan plan;
  plan.seed = 31;
  plan.overflow_rate = 0.3;
  const fault::FaultInjector a(plan);
  const fault::FaultInjector b(plan);
  bool any_hit = false, any_miss = false;
  for (int key = 0; key < 200; ++key) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const bool hit =
          a.should_overflow("serve.enqueue", std::to_string(key), attempt);
      EXPECT_EQ(hit, b.should_overflow("serve.enqueue", std::to_string(key),
                                       attempt));
      (hit ? any_hit : any_miss) = true;
    }
  }
  EXPECT_TRUE(any_hit);
  EXPECT_TRUE(any_miss);
}

TEST(FaultOverflow, SeedChangesTheDrawSet) {
  fault::FaultPlan p1, p2;
  p1.overflow_rate = p2.overflow_rate = 0.5;
  p1.seed = 1;
  p2.seed = 2;
  const fault::FaultInjector a(p1), b(p2);
  int differing = 0;
  for (int key = 0; key < 200; ++key)
    if (a.should_overflow("s", std::to_string(key), 1) !=
        b.should_overflow("s", std::to_string(key), 1))
      ++differing;
  EXPECT_GT(differing, 0);
}

// Stalls and overflows must not perturb the existing throw draws for the
// same (site, key): each fault kind draws from its own salt namespace.
TEST(FaultStalls, IndependentOfThrowDraws) {
  fault::FaultPlan with_stalls;
  with_stalls.seed = 11;
  with_stalls.throw_rate = 0.5;
  with_stalls.stall_rate = 0.5;
  fault::FaultPlan throws_only = with_stalls;
  throws_only.stall_rate = 0.0;

  const fault::FaultInjector a(with_stalls);
  const fault::FaultInjector b(throws_only);
  for (int key = 0; key < 100; ++key) {
    const std::string k = std::to_string(key);
    bool a_threw = false, b_threw = false;
    try {
      a.maybe_throw("site", k, 1);
    } catch (const fault::InjectedFault&) {
      a_threw = true;
    }
    try {
      b.maybe_throw("site", k, 1);
    } catch (const fault::InjectedFault&) {
      b_threw = true;
    }
    EXPECT_EQ(a_threw, b_threw) << "stall plan perturbed throw draws";
  }
}

}  // namespace

// Tests for the execution substrate: arena layout, coroutine scheduling
// (determinism, min-clock interleaving, exceptions), task composition and
// the synchronization primitives' atomicity under the DES scheduler.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "exec/machine.hpp"
#include "exec/sync.hpp"
#include "sim/machine_config.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace {

using namespace fsml;

// ---- arena -----------------------------------------------------------------

TEST(Arena, AlignmentRespected) {
  exec::VirtualArena arena;
  EXPECT_EQ(arena.alloc(1, 8) % 8, 0u);
  EXPECT_EQ(arena.alloc_line_aligned(1) % 64, 0u);
  EXPECT_EQ(arena.alloc_page_aligned(1) % 4096, 0u);
}

TEST(Arena, AllocationsDisjoint) {
  exec::VirtualArena arena;
  const sim::Addr a = arena.alloc(100, 8);
  const sim::Addr b = arena.alloc(100, 8);
  EXPECT_GE(b, a + 100);
}

TEST(Arena, PackedSlotsShareLines) {
  exec::VirtualArena arena;
  const sim::Addr base = arena.alloc_line_aligned(8 * 8);
  EXPECT_EQ((base + 8 * 7) / 64, base / 64);  // 8 slots on one line
}

TEST(Arena, ResetReusesAddresses) {
  exec::VirtualArena arena;
  const sim::Addr a = arena.alloc(64, 64);
  arena.reset();
  EXPECT_EQ(arena.alloc(64, 64), a);
}

TEST(Arena, RejectsBadArguments) {
  exec::VirtualArena arena;
  EXPECT_THROW(arena.alloc(0, 8), util::CheckFailure);
  EXPECT_THROW(arena.alloc(8, 3), util::CheckFailure);
}

// ---- machine / scheduler -----------------------------------------------------

TEST(Machine, RunsSingleThreadToCompletion) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  const sim::Addr a = m.arena().alloc_line_aligned(8);
  int finished = 0;
  m.spawn([&, a](exec::ThreadCtx& ctx) -> exec::SimTask {
    for (int i = 0; i < 10; ++i) co_await ctx.load(a);
    finished = 1;
  });
  const auto r = m.run();
  EXPECT_EQ(finished, 1);
  EXPECT_EQ(r.memory_ops, 10u);
  EXPECT_GT(r.total_cycles, 0u);
}

TEST(Machine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    exec::Machine m(sim::MachineConfig::tiny(2), 5);
    const sim::Addr a = m.arena().alloc_line_aligned(16);
    for (int t = 0; t < 2; ++t) {
      m.spawn([&, a, t](exec::ThreadCtx& ctx) -> exec::SimTask {
        for (int i = 0; i < 50; ++i) {
          co_await ctx.rmw(a + 8 * t);
          ctx.compute(ctx.rng().next_below(4));
        }
      });
    }
    return m.run().total_cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Machine, MinClockSchedulingInterleavesFairly) {
  // Two identical threads must end with near-identical clocks.
  exec::Machine m(sim::MachineConfig::tiny(2), 1);
  const sim::Addr a = m.arena().alloc_line_aligned(128);
  for (int t = 0; t < 2; ++t) {
    const sim::Addr mine = a + 64 * t;
    m.spawn([mine](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 100; ++i) co_await ctx.load(mine);
    });
  }
  const auto r = m.run();
  ASSERT_EQ(r.core_cycles.size(), 2u);
  const auto hi = std::max(r.core_cycles[0], r.core_cycles[1]);
  const auto lo = std::min(r.core_cycles[0], r.core_cycles[1]);
  EXPECT_LT(hi - lo, hi / 4);
}

TEST(Machine, SpawnBeyondCoresRejected) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  m.spawn([](exec::ThreadCtx&) -> exec::SimTask { co_return; });
  EXPECT_THROW(
      m.spawn([](exec::ThreadCtx&) -> exec::SimTask { co_return; }),
      util::CheckFailure);
}

TEST(Machine, RunIsOneShot) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  m.spawn([](exec::ThreadCtx&) -> exec::SimTask { co_return; });
  m.run();
  EXPECT_THROW(m.run(), util::CheckFailure);
}

TEST(Machine, KernelExceptionPropagates) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  const sim::Addr a = m.arena().alloc_line_aligned(8);
  m.spawn([a](exec::ThreadCtx& ctx) -> exec::SimTask {
    co_await ctx.load(a);
    throw std::runtime_error("kernel bug");
  });
  EXPECT_THROW(m.run(), std::runtime_error);
}

TEST(Machine, CycleBudgetGuardsAgainstRunaway) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  const sim::Addr a = m.arena().alloc_line_aligned(8);
  m.spawn([a](exec::ThreadCtx& ctx) -> exec::SimTask {
    for (;;) co_await ctx.load(a);  // never terminates
  });
  EXPECT_THROW(m.run(/*max_cycles=*/10000), util::CheckFailure);
}

TEST(Machine, ComputeRetiresInstructionsAndAdvancesClock) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  m.spawn([](exec::ThreadCtx& ctx) -> exec::SimTask {
    ctx.compute(123);
    co_return;
  });
  const auto r = m.run();
  EXPECT_EQ(r.instructions, 123u);
  EXPECT_EQ(r.total_cycles, 123u);
}

TEST(Machine, SubtaskCompositionRuns) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  const sim::Addr a = m.arena().alloc_line_aligned(8);
  int order = 0, at_helper = 0, after_helper = 0;

  struct Helper {
    static exec::SimTask touch_twice(exec::ThreadCtx& ctx, sim::Addr addr,
                                     int& order, int& at_helper) {
      co_await ctx.load(addr);
      at_helper = ++order;
      co_await ctx.load(addr);
    }
  };
  m.spawn([&, a](exec::ThreadCtx& ctx) -> exec::SimTask {
    co_await Helper::touch_twice(ctx, a, order, at_helper);
    after_helper = ++order;
  });
  const auto r = m.run();
  EXPECT_EQ(at_helper, 1);
  EXPECT_EQ(after_helper, 2);
  EXPECT_EQ(r.memory_ops, 2u);
}

TEST(Machine, SubtaskExceptionPropagatesThroughCoAwait) {
  exec::Machine m(sim::MachineConfig::tiny(1), 1);
  struct Helper {
    static exec::SimTask boom(exec::ThreadCtx& ctx, sim::Addr a) {
      co_await ctx.load(a);
      throw std::logic_error("deep failure");
    }
  };
  const sim::Addr a = m.arena().alloc_line_aligned(8);
  m.spawn([a](exec::ThreadCtx& ctx) -> exec::SimTask {
    co_await Helper::boom(ctx, a);
  });
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, PerThreadRngStreamsDiffer) {
  exec::Machine m(sim::MachineConfig::tiny(2), 1);
  std::uint64_t draws[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    m.spawn([&, t](exec::ThreadCtx& ctx) -> exec::SimTask {
      draws[t] = ctx.rng().next();
      co_await ctx.yield();
    });
  }
  m.run();
  EXPECT_NE(draws[0], draws[1]);
}

// ---- failure paths of a multi-core run -------------------------------------
// Several simulated threads run at once; cancellation (also from another host
// thread) and kernel exceptions surface in the scheduler's min-clock order.

TEST(ParallelMachine, FirstKernelExceptionWinsLikeSerial) {
  // Two kernels throw at different virtual times; run() surfaces the one
  // the scheduler reaches first.
  exec::Machine m(sim::MachineConfig::tiny(6), 1);
  const sim::Addr base = m.arena().alloc_line_aligned(64 * 6);
  for (std::uint32_t t = 0; t < 6; ++t) {
    m.spawn([t, a = base + 64 * t](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 500; ++i) {
        co_await ctx.load(a);
        if (t == 2 && i == 10) throw std::runtime_error("boom-early");
        if (t == 4 && i == 400) throw std::runtime_error("boom-late");
      }
    });
  }
  try {
    m.run();
    FAIL() << "expected a kernel exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-early");
  }
}

TEST(MachineDeadline, PastDeadlineCancelsPromptly) {
  exec::Machine m(sim::MachineConfig::tiny(4), 1);
  m.set_deadline(std::chrono::steady_clock::now());
  const sim::Addr base = m.arena().alloc_line_aligned(64 * 4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    m.spawn([a = base + 64 * t](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 2'000'000; ++i) co_await ctx.load(a);
    });
  }
  EXPECT_THROW(m.run(), util::DeadlineExceeded);
}

TEST(MachineDeadline, DeadlineStopsAnUnboundedKernel) {
  // The kernels never finish; only the deadline ends the run.
  exec::Machine m(sim::MachineConfig::tiny(4), 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  m.set_deadline(deadline);
  const sim::Addr base = m.arena().alloc_line_aligned(64 * 4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    m.spawn([a = base + 64 * t](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (;;) co_await ctx.load(a);
    });
  }
  EXPECT_THROW(m.run(), util::DeadlineExceeded);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

// ---- sync primitives ------------------------------------------------------------

TEST(SpinLock, MutualExclusionUnderContention) {
  exec::Machine m(sim::MachineConfig::tiny(4), 3);
  auto lock = std::make_shared<exec::SpinLock>(m.arena());
  auto in_critical = std::make_shared<int>(0);
  auto max_seen = std::make_shared<int>(0);
  auto total = std::make_shared<int>(0);
  const sim::Addr scratch = m.arena().alloc_line_aligned(64);

  for (int t = 0; t < 4; ++t) {
    m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 25; ++i) {
        co_await lock->acquire(ctx);
        ++*in_critical;
        *max_seen = std::max(*max_seen, *in_critical);
        co_await ctx.load(scratch);  // yield inside the critical section
        co_await ctx.store(scratch);
        ++*total;
        --*in_critical;
        co_await lock->release(ctx);
      }
    });
  }
  m.run();
  EXPECT_EQ(*max_seen, 1) << "two threads were in the critical section";
  EXPECT_EQ(*total, 100);
  EXPECT_EQ(lock->acquisitions(), 100u);
}

TEST(SpinLock, ReleaseByNonOwnerRejected) {
  exec::Machine m(sim::MachineConfig::tiny(2), 1);
  auto lock = std::make_shared<exec::SpinLock>(m.arena());
  m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
    co_await lock->acquire(ctx);
    // Hold forever (thread 1 will illegally release).
    for (int i = 0; i < 50; ++i) co_await ctx.yield();
    co_await lock->release(ctx);
  });
  m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
    co_await ctx.yield();
    co_await lock->release(ctx);  // not the owner
  });
  EXPECT_THROW(m.run(), util::CheckFailure);
}

TEST(SpinBarrier, NoThreadCrossesEarly) {
  constexpr int kThreads = 4, kRounds = 5;
  exec::Machine m(sim::MachineConfig::tiny(kThreads), 7);
  auto barrier = std::make_shared<exec::SpinBarrier>(m.arena(), kThreads);
  auto counts = std::make_shared<std::array<int, kRounds>>();
  counts->fill(0);
  auto violations = std::make_shared<int>(0);

  for (int t = 0; t < kThreads; ++t) {
    m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int r = 0; r < kRounds; ++r) {
        ctx.compute(ctx.rng().next_below(200));  // desynchronize arrivals
        ++(*counts)[static_cast<std::size_t>(r)];
        co_await barrier->wait(ctx);
        // After the barrier, everyone must have arrived in round r.
        if ((*counts)[static_cast<std::size_t>(r)] != kThreads)
          ++*violations;
      }
    });
  }
  m.run();
  EXPECT_EQ(*violations, 0);
  EXPECT_EQ(barrier->generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(AtomicU64, FetchAddIsAtomicAcrossThreads) {
  exec::Machine m(sim::MachineConfig::tiny(4), 9);
  auto counter = std::make_shared<exec::AtomicU64>(m.arena());
  auto seen = std::make_shared<std::vector<std::uint64_t>>();
  for (int t = 0; t < 4; ++t) {
    m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 100; ++i)
        seen->push_back(co_await counter->fetch_add(ctx, 1));
    });
  }
  m.run();
  EXPECT_EQ(counter->value(), 400u);
  // Every ticket must be unique (atomicity) and cover exactly [0, 400).
  std::sort(seen->begin(), seen->end());
  for (std::uint64_t i = 0; i < 400; ++i) ASSERT_EQ((*seen)[i], i);
}

TEST(AtomicU64, ContendedCounterGeneratesHitm) {
  exec::Machine m(sim::MachineConfig::tiny(4), 9);
  auto counter = std::make_shared<exec::AtomicU64>(m.arena());
  for (int t = 0; t < 4; ++t) {
    m.spawn([=](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 64; ++i) co_await counter->fetch_add(ctx, 1);
    });
  }
  const auto r = m.run();
  EXPECT_GT(r.aggregate.get(sim::RawEvent::kSnoopResponseHitM), 50u);
}

}  // namespace

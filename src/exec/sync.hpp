// Synchronization primitives for simulated threads.
//
// All primitives live at simulated addresses, so acquiring a lock or
// spinning on a barrier produces real coherence traffic (RFOs, HITM
// transfers) and burns retired instructions — faithfully reproducing the
// spin-wait instruction-count inflation the paper analyses for
// streamcluster (Section 4.3).
//
// Atomicity: the host-side state mutation runs inside the memory-op
// awaitable's apply step, before any other simulated thread can run, so a
// kRmw op plus its callback is a true atomic read-modify-write under the
// discrete-event scheduler.
#pragma once

#include <cstdint>

#include "exec/machine.hpp"
#include "exec/task.hpp"
#include "util/check.hpp"

namespace fsml::exec {

/// Test-and-test-and-set spin lock on a simulated cache line.
class SpinLock {
 public:
  explicit SpinLock(VirtualArena& arena)
      : addr_(arena.alloc_line_aligned(8)) {}

  sim::Addr addr() const { return addr_; }
  bool held() const { return held_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }

  /// One atomic test-and-set attempt; true when the lock was taken.
  /// count_contention bumps the contended counter when the lock is found
  /// held — inside the fn-op, so the count sees the lock state at the
  /// access.
  auto try_acquire(ThreadCtx& ctx, bool count_contention = false) {
    return ctx.op(addr_, 8, sim::AccessType::kRmw,
                  [this, core = ctx.core(), count_contention](
                      sim::AccessResult) {
                    if (held_) {
                      if (count_contention) ++contended_;
                      return false;
                    }
                    held_ = true;
                    owner_ = core;
                    ++acquisitions_;
                    return true;
                  });
  }

  /// Plain read of the lock word (the "test" of test-and-test-and-set).
  auto peek(ThreadCtx& ctx) {
    return ctx.op(addr_, 8, sim::AccessType::kLoad,
                  [this](sim::AccessResult) { return held_; });
  }

  /// Blocking acquire: spins (issuing loads, burning instructions) until
  /// the lock is free, then retries the test-and-set.
  ///
  /// NOTE: co_await results are bound to named locals before being tested.
  /// GCC 12 miscompiles `if (co_await expr)` / `while (co_await expr)` in
  /// nested coroutines (the frame loses its resume point mid-condition);
  /// binding the result first sidesteps the bug.
  SimTask acquire(ThreadCtx& ctx) {
    const bool first_try = co_await try_acquire(ctx, /*count_contention=*/true);
    if (first_try) co_return;
    for (;;) {
      for (;;) {
        const bool busy = co_await peek(ctx);
        if (!busy) break;
        ctx.compute(2);  // spin-read + branch
      }
      const bool taken = co_await try_acquire(ctx);
      if (taken) co_return;
    }
  }

  auto release(ThreadCtx& ctx) {
    return ctx.op(addr_, 8, sim::AccessType::kStore,
                  [this, core = ctx.core()](sim::AccessResult) {
                    FSML_CHECK_MSG(held_ && owner_ == core,
                                   "release by a thread not holding the lock");
                    held_ = false;
                    return true;
                  });
  }

 private:
  sim::Addr addr_;
  bool held_ = false;
  sim::CoreId owner_ = 0;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
};

/// Centralized sense-style spin barrier for a fixed set of parties.
class SpinBarrier {
 public:
  SpinBarrier(VirtualArena& arena, std::uint32_t parties)
      : count_addr_(arena.alloc_line_aligned(8)),
        gen_addr_(arena.alloc_line_aligned(8)),
        parties_(parties) {
    FSML_CHECK(parties >= 1);
  }

  std::uint64_t generation() const { return generation_; }
  std::uint64_t waits() const { return waits_; }

  SimTask wait(ThreadCtx& ctx) {
    struct Arrival {
      std::uint64_t generation;
      bool last;
    };
    const Arrival arrival = co_await ctx.op(
        count_addr_, 8, sim::AccessType::kRmw, [this](sim::AccessResult) {
          ++waits_;
          ++arrived_;
          if (arrived_ == parties_) {
            arrived_ = 0;
            ++generation_;
            return Arrival{generation_, true};
          }
          return Arrival{generation_, false};
        });
    if (arrival.last) {
      // Publish the new generation so spinners observe the release write.
      co_await ctx.store(gen_addr_, 8);
      co_return;
    }
    for (;;) {
      const std::uint64_t g =
          co_await ctx.op(gen_addr_, 8, sim::AccessType::kLoad,
                          [this](sim::AccessResult) { return generation_; });
      if (g > arrival.generation) co_return;
      ctx.compute(2);  // spin-read + branch
    }
  }

 private:
  sim::Addr count_addr_;
  sim::Addr gen_addr_;
  std::uint32_t parties_;
  std::uint32_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t waits_ = 0;
};

/// Shared atomic counter at a simulated address (fetch_add / read).
class AtomicU64 {
 public:
  explicit AtomicU64(VirtualArena& arena, std::uint64_t initial = 0,
                     bool line_aligned = true)
      : addr_(line_aligned ? arena.alloc_line_aligned(8) : arena.alloc(8, 8)),
        value_(initial) {}

  sim::Addr addr() const { return addr_; }
  std::uint64_t value() const { return value_; }

  auto fetch_add(ThreadCtx& ctx, std::uint64_t delta) {
    return ctx.op(addr_, 8, sim::AccessType::kRmw,
                  [this, delta](sim::AccessResult) {
                    const std::uint64_t old = value_;
                    value_ += delta;
                    return old;
                  });
  }

  auto read(ThreadCtx& ctx) {
    return ctx.op(addr_, 8, sim::AccessType::kLoad,
                  [this](sim::AccessResult) { return value_; });
  }

  auto write(ThreadCtx& ctx, std::uint64_t v) {
    return ctx.op(addr_, 8, sim::AccessType::kStore,
                  [this, v](sim::AccessResult) {
                    value_ = v;
                    return v;
                  });
  }

 private:
  sim::Addr addr_;
  std::uint64_t value_;
};

}  // namespace fsml::exec

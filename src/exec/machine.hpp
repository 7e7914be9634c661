// Machine: the simulated multicore system a kernel runs on.
//
//   exec::Machine m(sim::MachineConfig::westmere_dp(12), /*seed=*/42);
//   const sim::Addr data = m.arena().alloc(1024);
//   m.spawn([&](exec::ThreadCtx& ctx) -> exec::SimTask {
//     for (int i = 0; i < 128; ++i) {
//       co_await ctx.load(data + 8 * (i % 16));
//       ctx.compute(2);
//     }
//   });
//   const exec::RunResult r = m.run();
//
// One simulated thread runs per core. The scheduler is a discrete-event
// loop: it always resumes the unfinished thread with the smallest virtual
// clock, so threads interleave at memory-operation granularity exactly as
// their access latencies dictate. Given (config, seed, kernel) the entire
// execution — interleaving, coherence traffic, event counts — is
// reproducible bit-for-bit.
//
// NOTE on lambda kernels: the closure object passed to spawn() is kept
// alive by the Machine for the whole run, but anything it captures by
// reference must outlive run() — allocate simulated data before spawning
// and keep host-side state in scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/arena.hpp"
#include "exec/task.hpp"
#include "sim/machine_config.hpp"
#include "sim/memory_system.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace fsml::exec {

class Machine;

/// Thread-to-core placement policy for Machine::spawn.
///
/// kPacked (default, and the pre-NUMA behavior): thread t runs on core t,
/// filling socket 0 before socket 1. kScatter: threads round-robin across
/// sockets (thread t -> socket t % sockets), the OS-scheduler-like spread
/// that turns intra-socket false sharing into cross-socket false sharing.
/// On a single-socket machine both policies are identical.
enum class ThreadPlacement : std::uint8_t { kPacked, kScatter };

/// Per-thread handle kernels use to talk to the simulated hardware.
class ThreadCtx {
 public:
  sim::CoreId core() const { return core_; }
  sim::Cycles clock() const { return clock_; }
  std::uint64_t ops_issued() const { return ops_; }

  Machine& machine() { return *machine_; }
  util::Rng& rng() { return rng_; }

  /// Retires `n` plain ALU instructions (no suspension).
  void compute(std::uint64_t n);

  // -- Awaitable memory operations ------------------------------------------
  // `Fn` runs immediately after the access is applied and before any other
  // thread runs, so it can implement atomic read-modify-write semantics on
  // host-side state (see sync.hpp). Its return value is the result of the
  // co_await expression.

  template <typename Fn>
  struct OpAwaitable {
    ThreadCtx* ctx;
    sim::Addr addr;
    std::uint32_t size;
    sim::AccessType type;
    Fn fn;
    using Result = std::invoke_result_t<Fn&, sim::AccessResult>;
    alignas(Result) unsigned char storage[sizeof(Result)];

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      const sim::AccessResult r = ctx->perform(addr, size, type);
      new (storage) Result(fn(r));
      ctx->set_resume(h);
    }
    Result await_resume() {
      Result* p = std::launder(reinterpret_cast<Result*>(storage));
      Result out = std::move(*p);
      p->~Result();
      return out;
    }
  };

  struct VoidOpAwaitable {
    ThreadCtx* ctx;
    sim::Addr addr;
    std::uint32_t size;
    sim::AccessType type;
    sim::AccessResult result{};

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      result = ctx->perform(addr, size, type);
      ctx->set_resume(h);
    }
    sim::AccessResult await_resume() const { return result; }
  };

  VoidOpAwaitable load(sim::Addr addr, std::uint32_t size = 8) {
    return {this, addr, size, sim::AccessType::kLoad};
  }
  VoidOpAwaitable store(sim::Addr addr, std::uint32_t size = 8) {
    return {this, addr, size, sim::AccessType::kStore};
  }
  VoidOpAwaitable rmw(sim::Addr addr, std::uint32_t size = 8) {
    return {this, addr, size, sim::AccessType::kRmw};
  }

  /// Access with an atomically-applied host-side side effect.
  template <typename Fn>
  OpAwaitable<Fn> op(sim::Addr addr, std::uint32_t size, sim::AccessType type,
                     Fn fn) {
    return {this, addr, size, type, std::move(fn), {}};
  }

  /// Yields the core for one cycle without touching memory.
  struct YieldAwaitable {
    ThreadCtx* ctx;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx->clock_ += 1;
      ctx->set_resume(h);
    }
    void await_resume() const noexcept {}
  };
  YieldAwaitable yield() { return {this}; }

 private:
  friend class Machine;

  ThreadCtx(Machine* machine, sim::CoreId core, std::uint64_t seed)
      : machine_(machine), core_(core), rng_(seed) {}

  sim::AccessResult perform(sim::Addr addr, std::uint32_t size,
                            sim::AccessType type);
  void set_resume(std::coroutine_handle<> h) { resume_ = h; }
  std::coroutine_handle<> take_resume() {
    auto h = resume_;
    resume_ = nullptr;
    return h;
  }

  Machine* machine_;
  sim::CoreId core_;
  sim::Cycles clock_ = 0;
  std::uint64_t ops_ = 0;
  util::Rng rng_;
  std::coroutine_handle<> resume_;
};

/// Outcome of Machine::run().
struct RunResult {
  sim::Cycles total_cycles = 0;        ///< max over all cores
  std::vector<sim::Cycles> core_cycles;
  std::uint64_t instructions = 0;      ///< aggregate retired (0 if PMU off)
  std::uint64_t memory_ops = 0;
  double seconds = 0.0;                ///< total_cycles / core_hz
  sim::RawCounters aggregate;          ///< zeroed if PMU off
  /// Per-slice counter deltas when enable_slicing() was called: slice k
  /// covers virtual time [k*slice, (k+1)*slice). The final partial slice is
  /// included. Empty when slicing is off.
  std::vector<sim::RawCounters> slices;
  sim::Cycles slice_cycles = 0;
};

class Machine {
 public:
  using ThreadFn = std::function<SimTask(ThreadCtx&)>;

  explicit Machine(const sim::MachineConfig& config, std::uint64_t seed = 1);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  VirtualArena& arena() { return arena_; }
  sim::MemorySystem& memory() { return memory_; }
  const sim::MachineConfig& config() const { return memory_.config(); }
  std::uint64_t seed() const { return seed_; }

  /// Registers a simulated thread; the placement policy picks its core.
  void spawn(ThreadFn fn);

  /// Chooses how subsequent spawn() calls map threads onto sockets. Must be
  /// called before the first spawn so core assignment stays deterministic.
  void set_thread_placement(ThreadPlacement placement) {
    FSML_CHECK_MSG(threads_.empty(),
                   "set_thread_placement before spawning threads");
    placement_ = placement;
  }
  ThreadPlacement thread_placement() const { return placement_; }

  /// Core the i-th spawned thread runs on.
  sim::CoreId core_of_thread(std::uint32_t i) const {
    return threads_.at(i)->ctx->core();
  }

  /// Samples the aggregate PMU every `slice_cycles` of virtual time and
  /// reports per-slice counter deltas in RunResult::slices. This is the
  /// paper's "detection at finer granularity, e.g. in short time slices"
  /// future-work direction: a phase-level verdict instead of a
  /// whole-program one. Call before run(); 0 disables.
  void enable_slicing(sim::Cycles slice_cycles) {
    slice_cycles_ = slice_cycles;
  }

  std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Wall-clock deadline of run(): the scheduler reads the clock every
  /// 4096 steps and unwinds run() with util::DeadlineExceeded once it has
  /// passed. util::kNoDeadline (default) never reads the clock. This is how
  /// a collection attempt's deadline reaches a running simulation.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  /// Runs all spawned threads to completion. One-shot.
  /// Throws if any core exceeds `max_cycles` (deadlock guard) or a kernel
  /// throws.
  RunResult run(sim::Cycles max_cycles = 1ULL << 40);

  /// Converts virtual cycles to seconds at the configured core frequency.
  double seconds(sim::Cycles cycles) const;

 private:
  friend class ThreadCtx;

  struct ThreadState {
    ThreadFn fn;                       // keeps lambda captures alive
    std::unique_ptr<ThreadCtx> ctx;
    SimTask task;
    bool done = false;
  };

  /// Core for the `thread`-th spawned thread under the active placement.
  sim::CoreId placement_core(std::uint32_t thread) const;

  sim::MemorySystem memory_;
  VirtualArena arena_;
  std::uint64_t seed_;
  util::Rng spawn_rng_;
  ThreadPlacement placement_ = ThreadPlacement::kPacked;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  ThreadState* running_ = nullptr;
  bool ran_ = false;
  sim::Cycles slice_cycles_ = 0;
  std::chrono::steady_clock::time_point deadline_ = util::kNoDeadline;
};

}  // namespace fsml::exec

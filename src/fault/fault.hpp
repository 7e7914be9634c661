// fsml::fault — deterministic fault injection for the collection pipeline.
//
// A FaultPlan is a *schedule*, not a dice roll at runtime: every decision is
// a pure function of (plan seed, site, job key, attempt), so two sweeps with
// the same plan fail in exactly the same places regardless of host thread
// count or scheduling. That is what lets the tests pin hard properties like
// "the resumed cache is bit-identical to the uninterrupted run" and "the
// quarantine set is exactly these cells".
//
// Fault kinds, by site in the collection path:
//  * throws   — `collect.run` raises InjectedFault before the simulation;
//               transient (the first `throw_attempts` attempts fail, the
//               retry succeeds), so they exercise par::supervise's retries;
//  * hangs    — the job sleeps until its attempt's deadline and then throws
//               util::DeadlineExceeded (deadline overrun). Keys listed in
//               `hang_keys` hang on every attempt and therefore end up
//               quarantined as timed out;
//  * aborts   — `count_completion()` raises InjectedAbort (NonRetryable)
//               after `abort_after` completed jobs: an in-process stand-in
//               for `kill -9` mid-sweep, used by the crash/resume tests and
//               the CI smoke;
//  * corruption — `corrupt()` flips one byte of an artifact about to be
//               written, exercising CRC rejection on the read side.
//  * stalls   — `stall_for()` reports how many *virtual* steps a (site,
//               key, attempt) must delay before it proceeds. The serve
//               drill uses it for slow clients and laggy processing; unlike
//               hangs it models latency, not death, so the stalled work
//               still completes (or trips an idle/deadline timeout).
//  * overflow — `should_overflow()` forces a bounded-queue admission site
//               to report "full" even when capacity remains, exercising
//               reject-with-retry-after and load-shedding paths without
//               needing a real arrival race.
//
// The default FaultPlan is inert: plan().any() == false and every hook is a
// no-op, so production code paths can hold an injector unconditionally.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "par/supervisor.hpp"

namespace fsml::fault {

/// A transient injected failure: retryable, quarantinable.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// An injected crash: NonRetryable, stops the sweep like a kill would.
class InjectedAbort : public std::runtime_error, public par::NonRetryable {
 public:
  explicit InjectedAbort(const std::string& what)
      : std::runtime_error(what) {}
};

struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability that a (site, key) draws a transient throw.
  double throw_rate = 0.0;
  /// Leading attempts that fail for keys which drew a throw; retries past
  /// this count succeed. max_attempts <= throw_attempts quarantines them.
  int throw_attempts = 1;
  /// Keys that hang on *every* attempt: guaranteed quarantine.
  std::vector<std::string> hang_keys;
  /// Completed jobs before count_completion() raises InjectedAbort;
  /// 0 disables.
  std::uint64_t abort_after = 0;
  /// Flip one byte of artifacts passed through corrupt().
  bool corrupt_artifacts = false;
  /// Probability that a (site, key, attempt) draws a latency stall of
  /// `stall_steps` virtual steps (serve drill: slow clients, laggy
  /// dequeues). 0 disables.
  double stall_rate = 0.0;
  /// Virtual steps a stalled (site, key, attempt) delays.
  std::uint64_t stall_steps = 4;
  /// Probability that a bounded-queue admission site reports overflow for a
  /// (site, key, attempt) even though capacity remains. 0 disables.
  double overflow_rate = 0.0;

  bool any() const {
    return throw_rate > 0.0 || !hang_keys.empty() ||
           abort_after > 0 || corrupt_artifacts ||
           (stall_rate > 0.0 && stall_steps > 0) || overflow_rate > 0.0;
  }
};

class FaultInjector {
 public:
  FaultInjector() = default;  ///< inert
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Raises InjectedFault when (site, key) drew a throw and this attempt is
  /// still within the failing prefix.
  void maybe_throw(std::string_view site, std::string_view key,
                   int attempt) const;

  /// True when the job keyed `key` must overrun its deadline: a key in
  /// `hang_keys` hangs on every attempt.
  bool should_hang(std::string_view key) const;

  /// Injected hang: sleeps until `deadline`, then throws
  /// util::DeadlineExceeded. A 600 s cap keeps a hang without a deadline
  /// from wedging a test run; a hang that reaches the cap first throws
  /// InjectedFault instead, so it is not reported as timed out.
  [[noreturn]] void hang(std::chrono::steady_clock::time_point deadline) const;

  /// Counts one completed job; raises InjectedAbort on the abort_after'th.
  void count_completion();

  /// Deterministically flips one byte when corrupt_artifacts is set.
  std::string corrupt(std::string bytes) const;

  /// Virtual steps this (site, key, attempt) must stall before proceeding;
  /// 0 = run now. Pure in (seed, site, key, attempt).
  std::uint64_t stall_for(std::string_view site, std::string_view key,
                          int attempt) const;

  /// True when a bounded-queue admission at (site, key, attempt) must be
  /// treated as overflowed. Pure in (seed, site, key, attempt).
  bool should_overflow(std::string_view site, std::string_view key,
                       int attempt) const;

 private:
  /// Uniform [0, 1) draw, pure in (seed, site, key, salt).
  double draw(std::string_view site, std::string_view key,
              std::uint64_t salt) const;

  FaultPlan plan_;
  std::atomic<std::uint64_t> completions_{0};
};

}  // namespace fsml::fault

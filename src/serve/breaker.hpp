// CircuitBreaker: fault containment for the classify stage.
//
// Repeated classification faults (injected throws in drills, genuine bugs
// or resource exhaustion in production) must not let the service burn its
// whole budget re-failing: after kTripAfter consecutive faults the
// breaker opens and the server degrades to abstain-only verdicts. After a
// backoff the breaker half-opens and admits a single probe; a successful
// probe closes it, a failed probe re-opens it with a longer backoff.
//
// The backoff is decorrelated jitter, uniform(base, min(cap, base *
// 3^trips)), measured in the server's *virtual steps*, not milliseconds,
// and drawn deterministically from (seed, trip count), so a drill's breaker
// trajectory is a pure function of the fault schedule.
#pragma once

#include <cstdint>
#include <string>

namespace fsml::serve {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// Consecutive classify faults that open the breaker.
  static constexpr int kTripAfter = 3;
  /// Decorrelated-jitter re-probe backoff, in virtual steps: trip k waits
  /// uniform(base, min(cap, base * 3^(k-1))) steps before half-opening, so
  /// the first trip re-probes after exactly kBackoffBaseSteps.
  static constexpr std::uint64_t kBackoffBaseSteps = 4;
  static constexpr std::uint64_t kBackoffCapSteps = 64;

  /// `seed` drives the backoff jitter.
  explicit CircuitBreaker(std::uint64_t seed) : seed_(seed) {}

  State state() const { return state_; }
  bool open() const { return state_ != State::kClosed; }
  int trips() const { return trips_; }

  /// True when a classification may be attempted at `step`: always while
  /// closed; while open, only once the backoff elapsed (which transitions
  /// to half-open — the caller then owes exactly one probe outcome).
  bool allow(std::uint64_t step);

  /// Reports one classification outcome at `step`. A success closes the
  /// breaker; a failure increments the consecutive-fault count and, at
  /// kTripAfter (or any half-open failure), opens it with the next backoff.
  void on_success();
  void on_failure(std::uint64_t step);

  /// "closed", "open (re-probe at step 42)", "half-open".
  std::string describe() const;

 private:
  std::uint64_t backoff_steps() const;

  std::uint64_t seed_;
  State state_ = State::kClosed;
  int consecutive_faults_ = 0;
  int trips_ = 0;
  std::uint64_t reopen_step_ = 0;
};

}  // namespace fsml::serve

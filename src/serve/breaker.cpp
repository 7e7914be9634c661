#include "serve/breaker.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace fsml::serve {

std::uint64_t CircuitBreaker::backoff_steps() const {
  // Decorrelated jitter in virtual steps, seeded by (seed, trip count).
  double ceiling = static_cast<double>(kBackoffBaseSteps);
  for (int k = 1; k < trips_; ++k)
    ceiling = std::min(ceiling * 3.0, static_cast<double>(kBackoffCapSteps));
  util::SplitMix64 mix(seed_ ^ (static_cast<std::uint64_t>(trips_) << 24));
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  const double base = static_cast<double>(kBackoffBaseSteps);
  return static_cast<std::uint64_t>(base +
                                    u * std::max(0.0, ceiling - base));
}

bool CircuitBreaker::allow(std::uint64_t step) {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      return true;  // the probe is already owed
    case State::kOpen:
      if (step < reopen_step_) return false;
      state_ = State::kHalfOpen;
      return true;
  }
  return false;
}

void CircuitBreaker::on_success() {
  state_ = State::kClosed;
  consecutive_faults_ = 0;
}

void CircuitBreaker::on_failure(std::uint64_t step) {
  ++consecutive_faults_;
  if (state_ == State::kHalfOpen || consecutive_faults_ >= kTripAfter) {
    ++trips_;
    state_ = State::kOpen;
    reopen_step_ = step + backoff_steps();
    consecutive_faults_ = 0;
  }
}

std::string CircuitBreaker::describe() const {
  switch (state_) {
    case State::kClosed:
      return "closed";
    case State::kHalfOpen:
      return "half-open";
    case State::kOpen:
      return "open (re-probe at step " + std::to_string(reopen_step_) + ")";
  }
  return "closed";
}

}  // namespace fsml::serve

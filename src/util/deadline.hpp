// Deadlines are time points that the work under them checks for itself:
// exec::Machine reads the clock every few thousand scheduler steps, and an
// injected hang sleeps until its deadline.
#pragma once

#include <chrono>
#include <stdexcept>

namespace fsml::util {

/// Thrown by work that reaches its deadline. It is an ordinary, retryable
/// failure; par::supervise marks a job timed out when its last attempt
/// threw it.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

/// The deadline of work that has none.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

}  // namespace fsml::util

// supervise: fault-tolerant execution of a job batch on a ThreadPool.
//
// parallel_for (below this layer) guarantees *placement* determinism;
// supervise adds the reliability contract a long sweep needs:
//
//  * bounded retries — a failed attempt is retried at once, up to
//    max_attempts in all;
//  * deadlines — each attempt computes its own deadline and checks it (the
//    sim inner loop reads the clock every few thousand scheduler steps, see
//    exec::Machine::set_deadline) and unwinds with util::DeadlineExceeded,
//    which counts as one failed attempt;
//  * quarantine — a job that exhausts its budget yields a recorded
//    JobFailure instead of killing the sweep; results stay order-preserving
//    and the set of quarantined jobs is deterministic for a fixed fault
//    schedule (failures depend only on what fn(i, attempt) does, never on
//    host scheduling);
//  * fatal escalation — exceptions deriving NonRetryable (e.g. an injected
//    crash, see fsml::fault) and std::logic_error (FSML_CHECK programming
//    errors) stop the sweep: no retry, no quarantine, the original
//    exception propagates after in-flight attempts drain. Jobs not yet
//    started are skipped, which is what makes "kill mid-sweep + resume from
//    the journal" testable in-process.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "util/deadline.hpp"

namespace fsml::par {

/// Tag base: exceptions that also derive this are never retried or
/// quarantined — supervise stops the sweep and rethrows them.
class NonRetryable {
 public:
  virtual ~NonRetryable() = default;
};

/// One quarantined job: the sweep completed without it.
struct JobFailure {
  std::size_t index = 0;   ///< job-list index
  int attempts = 0;        ///< attempts consumed (== max_attempts)
  bool timed_out = false;  ///< last attempt threw util::DeadlineExceeded
  std::string error;       ///< what() of the last failure
};

/// Outcome of a supervised batch. `results` is index-aligned with the job
/// list; nullopt marks a quarantined job (its JobFailure is in `failures`,
/// sorted by index).
template <class T>
struct Supervised {
  std::vector<std::optional<T>> results;
  std::vector<JobFailure> failures;
  std::size_t retried_attempts = 0;  ///< attempts beyond each job's first

  bool all_ok() const { return failures.empty(); }
};

namespace detail {

/// A failed attempt as supervise sees it.
struct AttemptError {
  bool fatal = false;      ///< NonRetryable or std::logic_error
  bool timed_out = false;  ///< util::DeadlineExceeded
  std::string what;
};

inline AttemptError inspect(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const NonRetryable&) {
    return {true, false, {}};
  } catch (const std::logic_error&) {
    return {true, false, {}};  // FSML_CHECK failures are bugs, not faults
  } catch (const util::DeadlineExceeded& e) {
    return {false, true, e.what()};
  } catch (const std::exception& e) {
    return {false, false, e.what()};
  } catch (...) {
    return {false, false, "unknown error"};
  }
}

}  // namespace detail

/// Runs fn(index, attempt) for every index in [0, n) on `pool` (attempt
/// counts from 1 — fault schedules and logging key off it). Results are
/// placed by index. Throws std::runtime_error unless 1 <= max_attempts <=
/// 100, and rethrows the lowest-index NonRetryable / std::logic_error
/// escalation; every other failure is retried, then quarantined.
template <class Fn>
auto supervise(ThreadPool& pool, std::size_t n, int max_attempts, Fn&& fn)
    -> Supervised<std::decay_t<decltype(fn(std::size_t{0}, 1))>> {
  using T = std::decay_t<decltype(fn(std::size_t{0}, 1))>;
  if (max_attempts < 1 || max_attempts > 100)
    throw std::runtime_error("par::supervise: max_attempts must be 1..100");
  Supervised<T> out;
  out.results.resize(n);

  std::mutex record_mutex;               // guards failures + fatal slot
  std::exception_ptr fatal;              // first fatal by job index
  std::size_t fatal_index = n;
  std::atomic<bool> fatal_seen{false};
  std::atomic<std::size_t> retried{0};

  parallel_for(pool, n, [&](std::size_t i) {
    // A fatal error elsewhere "crashes" the sweep: jobs that have not
    // started yet are skipped (their slots stay empty).
    if (fatal_seen.load(std::memory_order_relaxed)) return;

    for (int attempt = 1;; ++attempt) {
      try {
        out.results[i].emplace(fn(i, attempt));
        return;
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        detail::AttemptError failed = detail::inspect(error);
        if (failed.fatal) {
          std::lock_guard<std::mutex> lock(record_mutex);
          fatal_seen.store(true, std::memory_order_relaxed);
          if (!fatal || i < fatal_index) {
            fatal = error;
            fatal_index = i;
          }
          return;
        }
        if (attempt >= max_attempts) {
          std::lock_guard<std::mutex> lock(record_mutex);
          out.failures.push_back(
              {i, attempt, failed.timed_out, std::move(failed.what)});
          return;
        }
        retried.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  if (fatal) std::rethrow_exception(fatal);
  std::sort(out.failures.begin(), out.failures.end(),
            [](const JobFailure& a, const JobFailure& b) {
              return a.index < b.index;
            });
  out.retried_attempts = retried.load();
  return out;
}

}  // namespace fsml::par

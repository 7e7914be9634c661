// Supervisor: fault-tolerant execution of a job batch on a ThreadPool.
//
// parallel_for (below this layer) guarantees *placement* determinism; the
// Supervisor adds the reliability contract a long sweep needs:
//
//  * per-job deadlines — each attempt gets a CancelToken that a watchdog
//    thread flips once the deadline passes; jobs poll it cooperatively
//    (the sim inner loop polls every few thousand scheduler steps, see
//    exec::Machine::set_cancel_flag) and unwind with CancelledError;
//  * bounded retries — a failed attempt is retried up to max_attempts with
//    exponential backoff and decorrelated jitter (deterministically seeded
//    per (job, attempt), so sleep schedules are reproducible);
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
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace fsml::par {

/// Tag base: exceptions that also derive this are never retried or
/// quarantined — the Supervisor stops the sweep and rethrows them.
class NonRetryable {
 public:
  virtual ~NonRetryable() = default;
};

/// Thrown by cooperative jobs when their CancelToken fires (deadline).
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("job cancelled: deadline exceeded") {}
};

/// Shared cancellation flag handed to each job attempt. Copyable; all
/// copies observe the same flag. cancel() is a request — jobs honour it by
/// polling (poll() or the raw flag() wired into a sim loop).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  void reset() { flag_->store(false, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

  /// Throws CancelledError if cancellation was requested.
  void poll() const {
    if (cancelled()) throw CancelledError();
  }

  /// The raw flag, for code that polls without depending on fsml::par
  /// (e.g. exec::Machine's scheduler loop).
  const std::atomic<bool>* flag() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

struct SupervisorConfig {
  /// Attempts per job (first run + retries). 1 = no retries.
  int max_attempts = 3;
  /// Wall-clock budget per attempt; zero disables the watchdog entirely
  /// (no watchdog thread is spawned).
  std::chrono::milliseconds deadline{0};
  /// Exponential backoff with decorrelated jitter: attempt k sleeps
  /// uniform(base, min(cap, prev * 3)) milliseconds, deterministically
  /// drawn from (a fixed seed, job index, k).
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_cap{250};

  /// Throws std::runtime_error on out-of-range values.
  void validate() const;
};

/// One quarantined job: the sweep completed without it.
struct JobFailure {
  std::size_t index = 0;   ///< job-list index
  int attempts = 0;        ///< attempts consumed (== max_attempts)
  bool timed_out = false;  ///< last attempt exceeded its deadline
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

class Supervisor {
 public:
  explicit Supervisor(ThreadPool& pool, SupervisorConfig config = {});
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  const SupervisorConfig& config() const { return config_; }

  /// Runs fn(index, token, attempt) for every index in [0, n), supervised
  /// (attempt counts from 1 — fault schedules and logging key off it).
  /// Results are placed by index. Throws only for NonRetryable /
  /// std::logic_error escalations; every other failure is retried then
  /// quarantined.
  template <class Fn>
  auto run(std::size_t n, Fn&& fn)
      -> Supervised<std::decay_t<decltype(fn(std::size_t{0},
                                             std::declval<CancelToken&>(),
                                             1))>> {
    using T = std::decay_t<decltype(fn(std::size_t{0},
                                       std::declval<CancelToken&>(), 1))>;
    config_.validate();
    Supervised<T> out;
    out.results.resize(n);

    std::mutex record_mutex;               // guards failures + fatal slot
    std::exception_ptr fatal;              // first fatal by job index
    std::size_t fatal_index = n;
    std::atomic<bool> fatal_seen{false};
    std::atomic<std::size_t> retried{0};

    parallel_for(pool_, n, [&](std::size_t i) {
      // A fatal error elsewhere "crashes" the sweep: jobs that have not
      // started yet are skipped (their slots stay empty).
      if (fatal_seen.load(std::memory_order_relaxed)) return;

      CancelToken token;
      for (int attempt = 1;; ++attempt) {
        const std::uint64_t ticket = arm_watch(token);
        try {
          out.results[i].emplace(fn(i, token, attempt));
          disarm_watch(ticket);
          return;
        } catch (...) {
          disarm_watch(ticket);
          const std::exception_ptr error = std::current_exception();
          if (is_fatal(error)) {
            std::lock_guard<std::mutex> lock(record_mutex);
            fatal_seen.store(true, std::memory_order_relaxed);
            if (!fatal || i < fatal_index) {
              fatal = error;
              fatal_index = i;
            }
            return;
          }
          if (attempt >= config_.max_attempts) {
            std::lock_guard<std::mutex> lock(record_mutex);
            out.failures.push_back({i, attempt, token.cancelled(),
                                    describe(error)});
            return;
          }
          retried.fetch_add(1, std::memory_order_relaxed);
          // Clear this attempt's deadline cancellation so the retry starts
          // clean.
          token.reset();
          backoff_sleep(i, attempt);
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

 private:
  /// True for NonRetryable-derived and std::logic_error exceptions.
  static bool is_fatal(const std::exception_ptr& error);
  static std::string describe(const std::exception_ptr& error);

  /// Registers `token` with the watchdog; returns a ticket for disarm.
  /// No-op (returns 0) when the deadline is disabled.
  std::uint64_t arm_watch(const CancelToken& token);
  void disarm_watch(std::uint64_t ticket);
  void backoff_sleep(std::size_t index, int attempt) const;
  void watchdog_loop();

  ThreadPool& pool_;
  SupervisorConfig config_;

  std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  std::map<std::uint64_t, std::pair<std::chrono::steady_clock::time_point,
                                    CancelToken>>
      watches_;
  std::uint64_t next_ticket_ = 1;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace fsml::par

// fsml::par — host-thread execution layer for embarrassingly parallel
// simulation batches (training-data collection, workload sweeps).
//
// Design constraints, in order:
//  1. Determinism. The pool never decides *what* is computed, only *when*:
//     callers hand it independent jobs whose results are placed by index
//     (see parallel_for.hpp), so parallel output is bit-identical to serial
//     output. Host parallelism must never change simulated results.
//  2. Safety over cleverness. Workers pull from one locked deque; there is
//     no work stealing and no lock-free queue — every job here is a full
//     `exec::Machine` simulation (milliseconds to seconds), so queue
//     overhead is irrelevant.
//  3. Nested-submit safety. Code running *on* a pool worker may call
//     parallel_for/submit on the same pool again; such calls execute inline
//     on the calling worker instead of enqueueing, so a fully busy pool can
//     never deadlock on its own sub-jobs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsml::util {
class Cli;
}

namespace fsml::par {

class ThreadPool {
 public:
  /// Spawns `workers` threads. A pool with zero workers is valid: submit()
  /// then runs jobs inline on the calling thread (serial mode).
  explicit ThreadPool(std::size_t workers = hardware_workers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// True iff the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// Enqueues a job. With zero workers, or when called from one of this
  /// pool's own workers while the queue is saturated with callers waiting,
  /// prefer parallel_for(): raw submit() gives no completion handle.
  /// Jobs submitted from a worker of this pool run inline (nested-submit
  /// safety); jobs must not throw — wrap exceptions before submitting.
  void submit(std::function<void()> job);

  /// max(1, std::thread::hardware_concurrency()).
  static std::size_t hardware_workers();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The jobs rule: `jobs` executing threads, where 0 means every hardware
/// thread.
std::size_t resolve_jobs(std::size_t jobs);

/// Workers for a pool on which `jobs` threads execute. parallel_for's
/// caller works too, so that is resolve_jobs(jobs) - 1: none for jobs == 1,
/// which runs everything inline.
std::size_t pool_workers(std::size_t jobs);

/// --jobs=N (0..4096, default 0) resolved by resolve_jobs.
std::size_t cli_jobs(const util::Cli& cli);

}  // namespace fsml::par

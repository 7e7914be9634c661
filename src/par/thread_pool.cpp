#include "par/thread_pool.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/cli.hpp"

namespace fsml::par {

namespace {

/// The pool the current thread works for, if any. Used both for
/// nested-submit safety and for ThreadPool::on_worker_thread().
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_current_pool == this; }

void ThreadPool::submit(std::function<void()> job) {
  // Inline execution keeps a saturated pool deadlock-free when a job
  // submits sub-jobs to its own pool, and gives serial semantics for the
  // zero-worker pool.
  if (workers_.empty() || on_worker_thread()) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

std::size_t ThreadPool::hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? ThreadPool::hardware_workers() : jobs;
}

std::size_t pool_workers(std::size_t jobs) { return resolve_jobs(jobs) - 1; }

std::size_t cli_jobs(const util::Cli& cli) {
  const std::int64_t jobs = cli.get_int("jobs", 0);
  if (jobs < 0 || jobs > 4096)
    throw std::runtime_error("option --jobs expects 0..4096, got " +
                             std::to_string(jobs));
  return resolve_jobs(static_cast<std::size_t>(jobs));
}

}  // namespace fsml::par

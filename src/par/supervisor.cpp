#include "par/supervisor.hpp"

namespace fsml::par {

namespace {

/// Seeds the backoff jitter.
constexpr std::uint64_t kBackoffSeed = 42;

}  // namespace

void SupervisorConfig::validate() const {
  if (max_attempts < 1 || max_attempts > 100)
    throw std::runtime_error("SupervisorConfig: max_attempts must be 1..100");
  if (deadline.count() < 0)
    throw std::runtime_error("SupervisorConfig: deadline must be >= 0");
  if (backoff_base.count() < 0 || backoff_cap < backoff_base)
    throw std::runtime_error(
        "SupervisorConfig: need 0 <= backoff_base <= backoff_cap");
}

Supervisor::Supervisor(ThreadPool& pool, SupervisorConfig config)
    : pool_(pool), config_(config) {
  config_.validate();
  if (config_.deadline.count() > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

Supervisor::~Supervisor() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mutex_);
      watchdog_stop_ = true;
    }
    watch_cv_.notify_all();
    watchdog_.join();
  }
}

bool Supervisor::is_fatal(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const NonRetryable&) {
    return true;
  } catch (const std::logic_error&) {
    return true;  // FSML_CHECK failures are bugs, not transient faults
  } catch (...) {
    return false;
  }
}

std::string Supervisor::describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

std::uint64_t Supervisor::arm_watch(const CancelToken& token) {
  if (config_.deadline.count() == 0) return 0;
  std::lock_guard<std::mutex> lock(watch_mutex_);
  const std::uint64_t ticket = next_ticket_++;
  watches_.emplace(ticket, std::make_pair(
                               std::chrono::steady_clock::now() +
                                   config_.deadline,
                               token));
  watch_cv_.notify_all();
  return ticket;
}

void Supervisor::disarm_watch(std::uint64_t ticket) {
  if (ticket == 0) return;
  std::lock_guard<std::mutex> lock(watch_mutex_);
  watches_.erase(ticket);
}

void Supervisor::backoff_sleep(std::size_t index, int attempt) const {
  if (config_.backoff_cap.count() == 0) return;
  // Decorrelated jitter: sleep_k = uniform(base, min(cap, base * 3^k)),
  // drawn from a generator seeded by (seed, index, attempt) so the schedule
  // is reproducible and distinct jobs desynchronize.
  double ceiling = static_cast<double>(config_.backoff_base.count());
  for (int k = 1; k < attempt; ++k)
    ceiling = std::min(ceiling * 3.0,
                       static_cast<double>(config_.backoff_cap.count()));
  ceiling = std::max(ceiling, 1.0);
  util::SplitMix64 mix(kBackoffSeed ^
                       (static_cast<std::uint64_t>(index) << 20) ^
                       static_cast<std::uint64_t>(attempt));
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  const double base = static_cast<double>(config_.backoff_base.count());
  const auto sleep_ms = static_cast<std::int64_t>(
      base + u * std::max(0.0, ceiling - base));
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

void Supervisor::watchdog_loop() {
  std::unique_lock<std::mutex> lock(watch_mutex_);
  while (!watchdog_stop_) {
    if (watches_.empty()) {
      watch_cv_.wait(lock,
                     [this] { return watchdog_stop_ || !watches_.empty(); });
      continue;
    }
    // All watches share one deadline duration, so the earliest expiry can
    // only come from the current set — a watch armed while we sleep always
    // expires later than the one we are waiting on.
    auto earliest = watches_.begin()->second.first;
    for (const auto& [ticket, watch] : watches_)
      earliest = std::min(earliest, watch.first);
    if (watch_cv_.wait_until(lock, earliest,
                             [this] { return watchdog_stop_; }))
      return;
    const auto now = std::chrono::steady_clock::now();
    for (auto it = watches_.begin(); it != watches_.end();) {
      if (it->second.first <= now) {
        it->second.second.cancel();
        it = watches_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace fsml::par

#include "fault/fault.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace fsml::fault {

namespace {

std::uint64_t mix_key(std::uint64_t seed, std::string_view site,
                      std::string_view key, std::uint64_t salt) {
  // FNV-1a over (site, key), folded with seed and salt, then SplitMix64 —
  // the same keyed-hash idiom core::training uses for per-run seeds.
  std::uint64_t h = 1469598103934665603ULL ^ seed;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const char c : site) mix(static_cast<std::uint64_t>(c));
  mix(0xFFu);  // separator: ("ab","c") must differ from ("a","bc")
  for (const char c : key) mix(static_cast<std::uint64_t>(c));
  mix(salt);
  return util::SplitMix64(h).next();
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

double FaultInjector::draw(std::string_view site, std::string_view key,
                           std::uint64_t salt) const {
  return static_cast<double>(mix_key(plan_.seed, site, key, salt) >> 11) *
         0x1.0p-53;
}

void FaultInjector::maybe_throw(std::string_view site, std::string_view key,
                                int attempt) const {
  if (plan_.throw_rate <= 0.0) return;
  if (attempt > plan_.throw_attempts) return;  // transient: retries succeed
  if (draw(site, key, /*salt=*/1) < plan_.throw_rate)
    throw InjectedFault("injected fault at " + std::string(site) + " [" +
                        std::string(key) + "] attempt " +
                        std::to_string(attempt));
}

bool FaultInjector::should_hang(std::string_view key) const {
  return std::find(plan_.hang_keys.begin(), plan_.hang_keys.end(), key) !=
         plan_.hang_keys.end();
}

void FaultInjector::hang(
    std::chrono::steady_clock::time_point deadline) const {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(600);
  if (deadline < give_up) {
    std::this_thread::sleep_until(deadline);
    throw util::DeadlineExceeded();
  }
  std::this_thread::sleep_until(give_up);
  throw InjectedFault("injected hang gave up after 600 s");
}

void FaultInjector::count_completion() {
  if (plan_.abort_after == 0) return;
  if (completions_.fetch_add(1, std::memory_order_relaxed) + 1 ==
      plan_.abort_after)
    throw InjectedAbort("injected abort after " +
                        std::to_string(plan_.abort_after) +
                        " completed jobs");
}

std::uint64_t FaultInjector::stall_for(std::string_view site,
                                       std::string_view key,
                                       int attempt) const {
  if (plan_.stall_rate <= 0.0 || plan_.stall_steps == 0) return 0;
  // Salt 3 namespaces stall draws away from throws (1); the attempt folds
  // in so retries of one key redraw independently.
  const std::uint64_t salt =
      3 + (static_cast<std::uint64_t>(attempt) << 8);
  return draw(site, key, salt) < plan_.stall_rate ? plan_.stall_steps : 0;
}

bool FaultInjector::should_overflow(std::string_view site,
                                    std::string_view key, int attempt) const {
  if (plan_.overflow_rate <= 0.0) return false;
  const std::uint64_t salt =
      4 + (static_cast<std::uint64_t>(attempt) << 8);
  return draw(site, key, salt) < plan_.overflow_rate;
}

std::string FaultInjector::corrupt(std::string bytes) const {
  if (!plan_.corrupt_artifacts || bytes.empty()) return bytes;
  const std::size_t pos = mix_key(plan_.seed, "corrupt", "", bytes.size()) %
                          bytes.size();
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
  return bytes;
}

}  // namespace fsml::fault

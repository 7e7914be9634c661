#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "par/parallel_for.hpp"
#include "util/check.hpp"

namespace fsml::serve {

namespace {

/// Classification attempts per session: the first try and one retry.
constexpr int kClassifyAttempts = 2;

core::RobustVerdict unknown_verdict(std::size_t repeats) {
  core::RobustVerdict v;
  v.known = false;
  v.repeats = repeats;
  return v;
}

std::string batch_key(std::uint64_t session, std::uint64_t sequence) {
  return std::to_string(session) + ":" + std::to_string(sequence);
}

ServeConfig validated(ServeConfig config) {
  config.validate();
  return config;
}

}  // namespace

void ServeConfig::validate() const {
  if (queue_depth < 1 || queue_depth > (1u << 20))
    throw std::runtime_error(
        "ServeConfig: queue_depth must be 1..1048576 batches, got " +
        std::to_string(queue_depth));
  if (max_sessions < 1 || max_sessions > (1u << 24))
    throw std::runtime_error(
        "ServeConfig: max_sessions must be 1..16777216, got " +
        std::to_string(max_sessions));
}

std::string_view to_string(ServerState state) {
  switch (state) {
    case ServerState::kHealthy: return "healthy";
    case ServerState::kShedding: return "shedding";
    case ServerState::kAbstainOnly: return "abstain-only";
    case ServerState::kDraining: return "draining";
  }
  return "healthy";
}

std::string HealthSnapshot::to_string() const {
  std::string s = "state=" + std::string(serve::to_string(state));
  s += " open=" + std::to_string(open_sessions);
  s += " queue=" + std::to_string(queue_size) + "/" +
       std::to_string(queue_capacity);
  s += " admitted=" + std::to_string(admitted);
  s += " verdicts=" +
       std::to_string(verdicts_good + verdicts_bad_fs + verdicts_bad_ma);
  s += " abstained=" + std::to_string(abstained);
  s += " shed=" + std::to_string(shed);
  s += " quarantined=" + std::to_string(quarantined);
  s += " expired=" + std::to_string(expired);
  s += " cancelled=" + std::to_string(cancelled);
  s += " retry-after=" + std::to_string(retry_afters);
  s += " classify-faults=" + std::to_string(classify_faults);
  s += std::string(" breaker=") + (breaker_open ? "open" : "closed");
  char classify[96];
  std::snprintf(classify, sizeof classify,
                " classify-p50=%.1fus classify-p99=%.1fus classify-calls=%llu",
                classify_p50_us, classify_p99_us,
                static_cast<unsigned long long>(classify_calls));
  s += classify;
  return s;
}

Server::Server(const core::FalseSharingDetector& detector,
               par::ThreadPool& pool, ServeConfig config,
               const fault::FaultInjector* injector)
    : detector_(detector),
      pool_(pool),
      config_(validated(std::move(config))),
      injector_(injector),
      deadline_detail_("deadline: no verdict within " +
                       std::to_string(config_.deadline_steps) + " steps"),
      idle_detail_("idle: no client activity for " +
                   std::to_string(config_.idle_timeout_steps) + " steps"),
      breaker_(config_.seed ^ 0x0b7ea4e5ULL) {
  FSML_CHECK_MSG(detector_.trained(),
                 "serve::Server needs a trained detector");
}

ServerState Server::state_locked() const {
  if (draining_) return ServerState::kDraining;
  if (breaker_.open()) return ServerState::kAbstainOnly;
  const double occupancy = static_cast<double>(queue_.size()) /
                           static_cast<double>(config_.queue_depth);
  if (occupancy >= kAbstainWatermark) return ServerState::kAbstainOnly;
  if (occupancy >= kShedWatermark) return ServerState::kShedding;
  return ServerState::kHealthy;
}

std::uint64_t Server::retry_hint_locked() const {
  // Enough virtual time for the queue to visibly move: an eighth of the
  // session deadline, floor 1 step.
  return std::max<std::uint64_t>(1, config_.deadline_steps / 8);
}

Server::Expiry Server::expiry_of(const SessionInfo& info,
                                 std::uint64_t step) const {
  if (info.cancelled) return Expiry::kCancelled;
  if (config_.deadline_steps > 0 &&
      step >= info.opened_step + config_.deadline_steps)
    return Expiry::kDeadline;
  if (config_.idle_timeout_steps > 0 && !info.closed &&
      step >= info.last_step + config_.idle_timeout_steps)
    return Expiry::kIdle;
  return Expiry::kNone;
}

std::uint64_t Server::wake_of(const SessionInfo& info) const {
  std::uint64_t wake = kNoWake;
  if (config_.deadline_steps > 0)
    wake = info.opened_step + config_.deadline_steps;
  if (config_.idle_timeout_steps > 0 && !info.closed)
    wake = std::min(wake, info.last_step + config_.idle_timeout_steps);
  return wake;
}

void Server::arm_locked(std::uint64_t id, SessionInfo& info) {
  info.wake = wake_of(info);
  if (info.wake != kNoWake) wakeups_.push({info.wake, id});
}

AdmitResult Server::open_session(std::uint64_t id, std::uint64_t step) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) return {Admission::kClosed, 0};
  if (sessions_.count(id) != 0) return {Admission::kDuplicate, 0};
  if (sessions_.size() >= config_.max_sessions) {
    ++stats_.retry_afters;
    return {Admission::kRetryAfter, retry_hint_locked()};
  }
  const ServerState state = state_locked();
  SessionInfo info;
  info.opened_step = step;
  info.last_step = step;
  info.degraded = state != ServerState::kHealthy;
  arm_locked(id, sessions_.emplace(id, std::move(info)).first->second);
  ++stats_.admitted;
  if (state != ServerState::kHealthy) {
    ++stats_.degraded_admissions;
    return {Admission::kDegraded, 0};
  }
  return {Admission::kAdmitted, 0};
}

SubmitResult Server::submit(std::uint64_t id, const SampleBatch& batch,
                            std::uint64_t step) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {Submit::kUnknownSession, 0, ""};
  SessionInfo& info = it->second;
  info.last_step = std::max(info.last_step, step);

  // Strict validation first: a malformed stream quarantines its session
  // even while shedding — garbage must never linger as an open session.
  ValidatedBatch validated = validate_batch(batch);
  if (validated.status == BatchStatus::kMalformed) {
    SubmitResult result{Submit::kQuarantined, 0, validated.detail};
    finalize_locked(id, info, Outcome::kQuarantined,
                    unknown_verdict(info.measurements.size()),
                    std::move(validated.detail), step, pending_records_);
    return result;
  }

  // Degraded, closed, or cancelled sessions absorb batches without
  // queueing: their terminal record is already determined, and the queue
  // capacity belongs to sessions that can still earn a verdict.
  if (info.degraded || info.closed || info.cancelled || draining_)
    return {Submit::kAccepted, 0, ""};

  if (validated.status == BatchStatus::kUnusable) {
    // Honest-but-unclassifiable measurement: an empty vote, not an error.
    if (info.measurements.size() < kMaxBatchesPerSession) {
      info.measurements.emplace_back(std::nullopt);
      ++info.submitted;
    }
    return {Submit::kUnusable, 0, ""};
  }

  if (info.submitted >= kMaxBatchesPerSession)
    return {Submit::kAccepted, 0, ""};  // vote is full; extra batches absorb

  const std::uint64_t sequence = info.submitted;
  const bool forced_overflow =
      injector_ != nullptr &&
      injector_->should_overflow("serve.enqueue", batch_key(id, sequence),
                                 static_cast<int>(info.rejections) + 1);
  if (forced_overflow || queue_.size() >= config_.queue_depth) {
    ++stats_.retry_afters;
    if (++info.rejections > kMaxRetryAfter) {
      // Persistent overflow: shed this session to an explicit abstention
      // rather than let it retry forever against a saturated queue.
      info.degraded = true;
    }
    return {Submit::kRetryAfter, retry_hint_locked(), ""};
  }
  queue_.push_back({id, sequence, std::move(validated.features)});
  info.rejections = 0;
  ++info.queued;
  ++info.submitted;
  ++stats_.batches_accepted;
  return {Submit::kAccepted, 0, ""};
}

void Server::close_session(std::uint64_t id, std::uint64_t step) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  SessionInfo& info = it->second;
  info.closed = true;
  info.last_step = std::max(info.last_step, step);
  if (info.queued == 0) ready_.insert(id);
}

void Server::cancel_session(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second.cancelled) return;
  it->second.cancelled = true;
  cancelled_.push_back(id);
}

void Server::finalize_locked(std::uint64_t id, SessionInfo& info,
                             Outcome outcome, core::RobustVerdict verdict,
                             std::string detail, std::uint64_t step,
                             std::vector<SessionRecord>& out) {
  SessionRecord record;
  record.id = id;
  record.outcome = outcome;
  record.verdict = verdict;
  record.detail = std::move(detail);
  record.opened_step = info.opened_step;
  record.final_step = step;
  out.push_back(std::move(record));

  switch (outcome) {
    case Outcome::kVerdict:
      switch (verdict.mode) {
        case trainers::Mode::kGood: ++stats_.verdicts_good; break;
        case trainers::Mode::kBadFs: ++stats_.verdicts_bad_fs; break;
        case trainers::Mode::kBadMa: ++stats_.verdicts_bad_ma; break;
      }
      break;
    case Outcome::kAbstained: ++stats_.abstained; break;
    case Outcome::kShed: ++stats_.shed; break;
    case Outcome::kQuarantined: ++stats_.quarantined; break;
    case Outcome::kExpired: ++stats_.expired; break;
    case Outcome::kCancelled: ++stats_.cancelled; break;
  }
  ready_.erase(id);
  sessions_.erase(id);
}

core::RobustVerdict Server::classify_session(const SessionInfo& info) const {
  if (info.measurements.empty()) return unknown_verdict(0);
  core::RobustConfig vote;
  vote.repeats = static_cast<int>(info.measurements.size());
  return detector_.classify_robust(
      [&info](std::size_t r) { return info.measurements[r]; }, vote);
}

Server::Classified Server::classify_with_retry(std::uint64_t id) const {
  Classified out;
  for (int attempt = 1; attempt <= kClassifyAttempts; ++attempt) {
    try {
      if (injector_ != nullptr)
        injector_->maybe_throw("serve.classify", std::to_string(id), attempt);
      const auto t0 = std::chrono::steady_clock::now();
      out.verdict = classify_session(sessions_.at(id));
      out.ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      return out;
    } catch (const std::logic_error&) {
      // A bug (FSML_CHECK), not a transient fault: never retried.
      out.bug = std::current_exception();
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
  }
  return out;
}

std::vector<std::uint64_t> Server::expiry_candidates_locked(
    std::uint64_t step) {
  std::vector<std::uint64_t> ids = std::move(cancelled_);
  cancelled_.clear();
  while (!wakeups_.empty() && wakeups_.top().step <= step) {
    const Wakeup due = wakeups_.top();
    wakeups_.pop();
    const auto it = sessions_.find(due.id);
    // Stale: the session finalized (its id may since have been reopened).
    if (it == sessions_.end() || it->second.wake != due.step) continue;
    it->second.wake = kNoWake;
    ids.push_back(due.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

#ifndef NDEBUG
std::vector<std::pair<std::uint64_t, Server::Expiry>>
Server::scan_expired_locked(std::uint64_t step) const {
  std::vector<std::pair<std::uint64_t, Expiry>> out;
  for (const auto& [id, info] : sessions_) {
    const Expiry why = expiry_of(info, step);
    if (why != Expiry::kNone) out.emplace_back(id, why);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> Server::scan_ready_locked() const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, info] : sessions_)
    if (info.closed && info.queued == 0) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}
#endif

std::vector<SessionRecord> Server::tick(std::uint64_t step,
                                        std::size_t service_rate) {
  std::lock_guard<std::mutex> lock(mutex_);
  return tick_locked(step, service_rate);
}

std::vector<SessionRecord> Server::tick_locked(std::uint64_t step,
                                               std::size_t service_rate) {
  std::vector<SessionRecord> records = std::move(pending_records_);
  pending_records_.clear();

  // Service phase: take up to service_rate batches from the queue, oldest
  // first; an injected stall consumes extra service budget, modelling a
  // laggy dequeue without reordering the FIFO.
  std::int64_t budget = static_cast<std::int64_t>(service_rate);
  while (budget > 0 && !queue_.empty()) {
    QueuedBatch item = std::move(queue_.front());
    queue_.pop_front();
    std::int64_t cost = 1;
    if (injector_ != nullptr)
      cost += static_cast<std::int64_t>(injector_->stall_for(
          "serve.dequeue", batch_key(item.session, item.sequence), 1));
    budget -= cost;
    ++stats_.batches_processed;
    const auto it = sessions_.find(item.session);
    if (it == sessions_.end()) continue;  // quarantined/cancelled meanwhile
    SessionInfo& info = it->second;
    if (info.queued > 0) --info.queued;
    if (info.measurements.size() < kMaxBatchesPerSession)
      info.measurements.emplace_back(std::move(item.features));
    if (info.closed && info.queued == 0) ready_.insert(item.session);
  }

  // Expiry phase, in ascending id order: cancellations, deadlines, idle
  // timeouts. Each produces an explicit record — never a silent drop. A
  // candidate whose client was active since its wake-up is re-armed.
  std::vector<std::pair<std::uint64_t, Expiry>> expired;
  for (const std::uint64_t id : expiry_candidates_locked(step)) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;  // finalized since its cancel
    SessionInfo& info = it->second;
    const Expiry why = expiry_of(info, step);
    if (why != Expiry::kNone)
      expired.emplace_back(id, why);
    else if (info.wake == kNoWake)
      arm_locked(id, info);
  }
  FSML_DCHECK(expired == scan_expired_locked(step));
  for (const auto& [id, why] : expired) {
    SessionInfo& info = sessions_.at(id);
    if (why == Expiry::kCancelled)
      finalize_locked(id, info, Outcome::kCancelled,
                      unknown_verdict(info.measurements.size()),
                      "cancelled mid-flight", step, records);
    else
      finalize_locked(id, info, Outcome::kExpired,
                      unknown_verdict(info.measurements.size()),
                      why == Expiry::kDeadline ? deadline_detail_
                                               : idle_detail_,
                      step, records);
  }

  // Ready phase: sessions whose client closed and whose queued batches are
  // all processed. Degraded (shed) sessions finalize to an explicit
  // abstention; the rest classify on the pool, two attempts each.
  const std::vector<std::uint64_t> ready(ready_.begin(), ready_.end());
  FSML_DCHECK(ready == scan_ready_locked());
  std::vector<std::uint64_t> to_classify;
  for (const std::uint64_t id : ready) {
    SessionInfo& info = sessions_.at(id);
    if (info.degraded) {
      finalize_locked(id, info, Outcome::kShed,
                      unknown_verdict(info.measurements.size()),
                      "load shed: degraded admission or persistent overflow",
                      step, records);
    } else {
      to_classify.push_back(id);
    }
  }

  if (!to_classify.empty()) {
    const bool was_open = breaker_.open();
    if (was_open && !breaker_.allow(step)) {
      // Abstain-only: the breaker is open and its backoff has not elapsed.
      for (const std::uint64_t id : to_classify) {
        SessionInfo& info = sessions_.at(id);
        finalize_locked(id, info, Outcome::kShed,
                        unknown_verdict(info.measurements.size()),
                        "abstain-only: circuit breaker open", step, records);
      }
    } else {
      // Half-open: classify only the first ready session as the probe;
      // the rest stay queued for the next tick (or abstain if it fails).
      if (was_open) to_classify.resize(1);

      // Workers write disjoint slots; parallel_for joins before they are
      // read, and the lowest-index bug escapes before any is recorded.
      std::vector<Classified> classified(to_classify.size());
      par::parallel_for(pool_, to_classify.size(), [&](std::size_t k) {
        classified[k] = classify_with_retry(to_classify[k]);
      });
      for (const Classified& c : classified)
        if (c.bug) std::rethrow_exception(c.bug);

      for (std::size_t k = 0; k < to_classify.size(); ++k) {
        SessionInfo& info = sessions_.at(to_classify[k]);
        const Classified& c = classified[k];
        if (c.verdict.has_value()) {
          classify_ns_[stats_.classify_calls++ % kClassifyWindow] = c.ns;
          breaker_.on_success();
          finalize_locked(to_classify[k], info,
                          c.verdict->known ? Outcome::kVerdict
                                           : Outcome::kAbstained,
                          *c.verdict, c.verdict->to_string(), step, records);
        } else {
          stats_.classify_faults += kClassifyAttempts;
          breaker_.on_failure(step);
          finalize_locked(to_classify[k], info, Outcome::kAbstained,
                          unknown_verdict(info.measurements.size()),
                          "classify faulted: " + c.error, step, records);
        }
      }
      stats_.breaker_trips = breaker_.trips();
    }
  }

  return records;
}

std::vector<SessionRecord> Server::drain(std::uint64_t step,
                                         std::size_t service_rate) {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
  for (auto& [id, info] : sessions_) {
    info.closed = true;
    if (info.queued == 0) ready_.insert(id);
  }
  std::vector<SessionRecord> records;
  const std::size_t rate = std::max<std::size_t>(service_rate, 1);
  // Drain completeness: every queued batch is processed and every session
  // finalized. The breaker backoff bounds the wait; the deadline is the
  // hard backstop, so this terminates.
  std::uint64_t guard = 0;
  while (!sessions_.empty() || !queue_.empty()) {
    auto produced = tick_locked(step, rate);
    records.insert(records.end(),
                   std::make_move_iterator(produced.begin()),
                   std::make_move_iterator(produced.end()));
    ++step;
    FSML_CHECK_MSG(++guard < 1000000,
                   "serve::Server::drain failed to converge");
  }
  return records;
}

HealthSnapshot Server::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthSnapshot out = stats_;
  out.state = state_locked();
  out.open_sessions = sessions_.size();
  out.queue_size = queue_.size();
  out.queue_capacity = config_.queue_depth;
  out.breaker_trips = breaker_.trips();
  out.breaker_open = breaker_.open();
  const std::size_t window = static_cast<std::size_t>(
      std::min<std::uint64_t>(stats_.classify_calls, kClassifyWindow));
  if (window > 0) {
    std::vector<std::uint64_t> sorted(classify_ns_.begin(),
                                      classify_ns_.begin() + window);
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&sorted](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]) /
             1000.0;
    };
    out.classify_p50_us = at(0.50);
    out.classify_p99_us = at(0.99);
  }
  return out;
}

}  // namespace fsml::serve

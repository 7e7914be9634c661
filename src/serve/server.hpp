// serve::Server — an overload-safe streaming detection service.
//
// Sessions of counter-sample batches are admitted, validated, queued in a
// bounded FIFO, and classified with the existing two-stage detector, fanned
// out over the fsml::par pool. Robustness is the load-bearing design: the
// server's one invariant is that *every admitted session receives exactly
// one terminal record*, and that under any combination of overload, stalls,
// garbage streams, and classify faults that record is a correct verdict or
// an explicit `unknown` abstention — never a guess. Concretely:
//
//  * admission control + backpressure — the queue never grows: a full queue
//    rejects the batch with a retry-after hint; a session rejected more
//    than kMaxRetryAfter times in a row is shed to an explicit abstention
//    instead of queueing forever;
//  * load shedding — queue occupancy drives a degraded-mode state machine
//    (healthy → shedding at kShedWatermark → abstain-only at
//    kAbstainWatermark → draining): shedding degrades
//    *new* sessions to abstention while protecting admitted work,
//    abstain-only stops queueing entirely, draining finishes what is in
//    flight and admits nothing;
//  * deadlines — per-session deadline and idle timeouts measured in the
//    caller's virtual steps, plus mid-flight cancellation (cancel_session);
//  * validation — strict per-batch schema checks (serve/session.hpp):
//    malformed streams quarantine their session, never the server;
//  * fault containment — each ready session gets two classify attempts,
//    fanned out with par::parallel_for; a session whose both attempts fail
//    abstains, repeated classify faults trip a CircuitBreaker whose
//    decorrelated-jitter re-probe schedule degrades the server to
//    abstain-only while open, and a std::logic_error (a bug, not a fault)
//    is never retried and escapes tick().
//
// A tick does work in proportion to the sessions that can change state at
// its step, not to the sessions that are open. Three indexes, kept current
// by every entry point, find that work:
//
//  * a min-heap of wake-ups — one entry per open session, at the earliest
//    step its deadline or idle timeout could fire. Client activity only
//    moves that step later, so entries are re-armed lazily: a popped entry
//    whose client was active since goes back in at the new step, and an
//    entry whose session already finalized is dropped;
//  * the ids cancelled since the last tick;
//  * an ordered set of ready sessions (closed, nothing queued).
//
// The expiry phase sorts the popped and cancelled ids and re-checks each
// with the exact conditions and priority a full scan would apply
// (cancelled, then deadline, then idle); the ready phase walks the ready
// set in id order. A tick therefore costs O((due + cancelled + ready) log
// open) rather than two walks over every open session, and produces the
// same records, in the same order, at the same steps. Debug builds re-run
// the full scans and check that they agree with the indexes.
//
// Time is virtual: every entry point takes a monotonically non-decreasing
// `step` chosen by the caller (a drill's event loop, or wall milliseconds
// in production). All shedding/deadline/breaker decisions are pure
// functions of (config, fault plan, call sequence), never of host
// scheduling — which is what lets bench/serve_drill assert bit-identical
// verdict sets across --jobs values.
//
// Thread safety: one mutex guards everything, the queue included; submit()
// may be called from many client threads while another thread ticks. The
// lock is held through a tick's classify fan-out, whose workers only read
// the sessions and write their own result slots. Determinism across --jobs
// is guaranteed for a fixed *call sequence* (the drill is single-threaded
// by design); concurrent callers get linearized, conserved sessions
// instead.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "fault/fault.hpp"
#include "par/thread_pool.hpp"
#include "serve/breaker.hpp"
#include "serve/session.hpp"

namespace fsml::serve {

/// Batches one session may contribute to its vote.
inline constexpr std::size_t kMaxBatchesPerSession = 32;
/// Consecutive full-queue rejections one session tolerates before it is
/// shed.
inline constexpr std::size_t kMaxRetryAfter = 3;
/// Queue occupancy fractions entering shedding / abstain-only.
inline constexpr double kShedWatermark = 0.75;
inline constexpr double kAbstainWatermark = 0.95;
/// Most recent classify calls the HealthSnapshot percentiles cover.
inline constexpr std::size_t kClassifyWindow = 1024;

struct ServeConfig {
  /// Queue capacity, in batches. The queue never grows past this.
  std::size_t queue_depth = 256;
  /// Concurrently open sessions; further opens get retry-after.
  std::size_t max_sessions = 1024;
  /// Virtual steps from admission to forced finalization (0 = no deadline).
  std::uint64_t deadline_steps = 96;
  /// Virtual steps without client activity before an open session expires
  /// (0 = no idle timeout).
  std::uint64_t idle_timeout_steps = 24;
  /// Seeds the circuit breaker's backoff jitter.
  std::uint64_t seed = 42;

  /// Throws std::runtime_error with an actionable message on out-of-range
  /// values.
  void validate() const;
};

/// Degraded-mode state machine, in degradation order.
enum class ServerState : std::uint8_t {
  kHealthy,
  kShedding,
  kAbstainOnly,
  kDraining,
};

std::string_view to_string(ServerState state);

/// Admission decision for open_session().
enum class Admission : std::uint8_t {
  kAdmitted,    ///< session open, batches welcome
  kDegraded,    ///< admitted, but already destined for a shed abstention
  kRetryAfter,  ///< at capacity — retry after `retry_after_steps`
  kDuplicate,   ///< id already open
  kClosed,      ///< server is draining / shut down
};

struct AdmitResult {
  Admission admission = Admission::kClosed;
  std::uint64_t retry_after_steps = 0;  ///< meaningful for kRetryAfter
};

/// Outcome of submit().
enum class Submit : std::uint8_t {
  kAccepted,        ///< queued (or absorbed, for degraded sessions)
  kUnusable,        ///< honest-but-unclassifiable batch absorbed as a
                    ///< no-vote measurement
  kRetryAfter,      ///< queue full — retry after `retry_after_steps`
  kQuarantined,     ///< malformed batch; session terminally quarantined
  kUnknownSession,  ///< no such open session
};

struct SubmitResult {
  Submit status = Submit::kUnknownSession;
  std::uint64_t retry_after_steps = 0;
  std::string detail;  ///< validation failure reason, when quarantined
};

/// Monitoring snapshot; all counters are cumulative since construction.
struct HealthSnapshot {
  ServerState state = ServerState::kHealthy;
  std::size_t open_sessions = 0;
  std::size_t queue_size = 0;
  std::size_t queue_capacity = 0;
  std::uint64_t admitted = 0;
  std::uint64_t degraded_admissions = 0;
  std::uint64_t retry_afters = 0;  ///< session opens + batch submits deferred
  std::uint64_t verdicts_good = 0;
  std::uint64_t verdicts_bad_fs = 0;
  std::uint64_t verdicts_bad_ma = 0;
  std::uint64_t abstained = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t batches_accepted = 0;
  std::uint64_t batches_processed = 0;
  std::uint64_t classify_faults = 0;
  int breaker_trips = 0;
  bool breaker_open = false;

  /// Where classify time goes: every classify call is counted, and the
  /// wall-clock percentiles (µs) cover the last kClassifyWindow of them.
  /// Wall times never influence verdicts, so they do not break the
  /// bit-identity contract.
  std::uint64_t classify_calls = 0;
  double classify_p50_us = 0.0;
  double classify_p99_us = 0.0;

  std::uint64_t terminal_records() const {
    return verdicts_good + verdicts_bad_fs + verdicts_bad_ma + abstained +
           shed + quarantined + expired + cancelled;
  }

  std::string to_string() const;
};

class Server {
 public:
  /// The detector must outlive the server and be trained. `injector` (may
  /// be null) supplies the chaos sites: "serve.enqueue" overflow,
  /// "serve.dequeue" stalls, "serve.classify" throws.
  Server(const core::FalseSharingDetector& detector, par::ThreadPool& pool,
         ServeConfig config, const fault::FaultInjector* injector = nullptr);

  const ServeConfig& config() const { return config_; }

  /// Opens a session at virtual time `step`.
  AdmitResult open_session(std::uint64_t id, std::uint64_t step);

  /// Submits one sample batch for an open session.
  SubmitResult submit(std::uint64_t id, const SampleBatch& batch,
                      std::uint64_t step);

  /// Marks the session complete; it finalizes once its queued batches have
  /// been processed. Unknown or already-terminal ids are ignored.
  void close_session(std::uint64_t id, std::uint64_t step);

  /// Requests mid-flight cancellation; the session finalizes with an
  /// explicit kCancelled record on the next tick.
  void cancel_session(std::uint64_t id);

  /// Advances virtual time: processes up to `service_rate` queued batches
  /// (injected stalls consume extra service budget), expires deadlines and
  /// idle sessions, classifies ready sessions on the pool, and returns the
  /// terminal records produced — in ascending session-id order per
  /// finalization class, deterministically.
  std::vector<SessionRecord> tick(std::uint64_t step,
                                  std::size_t service_rate);

  /// Enters kDraining, closes every open session, and ticks until all
  /// queued work is processed and every session has its terminal record.
  /// No admitted session is ever silently dropped.
  std::vector<SessionRecord> drain(std::uint64_t step,
                                   std::size_t service_rate);

  HealthSnapshot snapshot() const;

 private:
  /// No live wake-up entry: the session can neither hit a deadline nor go
  /// idle, or the expiry phase has just popped its entry.
  static constexpr std::uint64_t kNoWake =
      std::numeric_limits<std::uint64_t>::max();

  struct SessionInfo {
    std::uint64_t opened_step = 0;
    std::uint64_t last_step = 0;
    /// Step of this session's live entry in wakeups_, or kNoWake.
    std::uint64_t wake = kNoWake;
    /// Processed measurements; nullopt = honest-but-unusable batch.
    std::vector<std::optional<pmu::FeatureVector>> measurements;
    std::size_t queued = 0;      ///< batches accepted, not yet processed
    std::size_t submitted = 0;   ///< batches accepted overall
    std::size_t rejections = 0;  ///< consecutive full-queue rejections
    bool closed = false;
    bool degraded = false;   ///< admitted under shedding/abstain-only
    bool cancelled = false;  ///< cancel_session was called
  };

  /// Why the expiry phase ends a session, in the order it checks.
  enum class Expiry : std::uint8_t { kNone, kCancelled, kDeadline, kIdle };

  /// The earliest step at which session `id` could expire.
  struct Wakeup {
    std::uint64_t step = 0;
    std::uint64_t id = 0;
    bool operator>(const Wakeup& other) const { return step > other.step; }
  };

  struct QueuedBatch {
    std::uint64_t session = 0;
    std::uint64_t sequence = 0;  ///< per-session batch index, for fault keys
    pmu::FeatureVector features;
  };

  /// One ready session's classification: the verdict, or what() of its
  /// last failed attempt.
  struct Classified {
    std::optional<core::RobustVerdict> verdict;
    std::string error;
    std::exception_ptr bug;  ///< a std::logic_error, rethrown by tick()
    std::uint64_t ns = 0;    ///< wall time of the call that succeeded
  };

  ServerState state_locked() const;
  std::uint64_t retry_hint_locked() const;
  Expiry expiry_of(const SessionInfo& info, std::uint64_t step) const;
  std::uint64_t wake_of(const SessionInfo& info) const;
  /// Pushes the session's wake-up at wake_of(info), if it has one.
  void arm_locked(std::uint64_t id, SessionInfo& info);
  /// Pops the due wake-ups and takes the cancellations: the ascending,
  /// distinct ids that may expire at `step` (a cancelled one may have
  /// finalized since).
  std::vector<std::uint64_t> expiry_candidates_locked(std::uint64_t step);
#ifndef NDEBUG
  /// The full scans the indexes replace, for debug-build cross-checks.
  std::vector<std::pair<std::uint64_t, Expiry>> scan_expired_locked(
      std::uint64_t step) const;
  std::vector<std::uint64_t> scan_ready_locked() const;
#endif
  void finalize_locked(std::uint64_t id, SessionInfo& info, Outcome outcome,
                       core::RobustVerdict verdict, std::string detail,
                       std::uint64_t step,
                       std::vector<SessionRecord>& out);
  core::RobustVerdict classify_session(const SessionInfo& info) const;
  /// Up to kClassifyAttempts tries at classify_session; safe to run on a
  /// pool worker while the tick holds the lock.
  Classified classify_with_retry(std::uint64_t id) const;
  std::vector<SessionRecord> tick_locked(std::uint64_t step,
                                         std::size_t service_rate);

  const core::FalseSharingDetector& detector_;
  par::ThreadPool& pool_;
  ServeConfig config_;
  const fault::FaultInjector* injector_;

  /// Expired-record details; they depend only on the config.
  const std::string deadline_detail_;
  const std::string idle_detail_;

  /// The only lock: it guards every member below.
  mutable std::mutex mutex_;
  /// Accepted batches, oldest first; never more than queue_depth.
  std::deque<QueuedBatch> queue_;
  std::unordered_map<std::uint64_t, SessionInfo> sessions_;
  /// Min-heap of wake-ups, at most one live entry per open session (see
  /// the header comment); entries of finalized sessions are stale.
  std::priority_queue<Wakeup, std::vector<Wakeup>, std::greater<>> wakeups_;
  /// Ids cancelled since the last tick.
  std::vector<std::uint64_t> cancelled_;
  /// Ids of the open sessions that are closed with nothing queued.
  std::set<std::uint64_t> ready_;
  CircuitBreaker breaker_;
  bool draining_ = false;
  HealthSnapshot stats_;
  /// Wall-clock nanoseconds of the last kClassifyWindow classify calls, for
  /// the HealthSnapshot percentiles; call c lands in slot c % window.
  std::array<std::uint64_t, kClassifyWindow> classify_ns_{};
  /// Records produced outside tick (submit-time quarantines); the next
  /// tick() drains them first, keeping record order deterministic.
  std::vector<SessionRecord> pending_records_;
};

}  // namespace fsml::serve

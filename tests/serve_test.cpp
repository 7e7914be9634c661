// fsml::serve unit tests: strict batch validation, the circuit breaker's
// trip/backoff schedule, and the Server's admission / backpressure /
// shedding / expiry / quarantine / retry / drain state machine, including
// concurrent clients. The suite names (ServeSession / CircuitBreaker /
// ServeServer) are part of the TSan ctest filter in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/labels.hpp"
#include "core/training.hpp"
#include "fault/fault.hpp"
#include "pmu/events.hpp"
#include "serve/breaker.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace {

using namespace fsml;

// ---- batch validation ------------------------------------------------------

serve::SampleBatch full_batch(double scale = 1.0) {
  serve::SampleBatch batch;
  for (const pmu::EventInfo& info : pmu::westmere_event_table())
    batch.push_back({std::string(info.name), 1000.0 * scale});
  return batch;
}

TEST(ServeSession, AcceptsFullWellFormedBatch) {
  const serve::ValidatedBatch v = serve::validate_batch(full_batch());
  EXPECT_EQ(v.status, serve::BatchStatus::kOk);
}

TEST(ServeSession, UnknownEventIsMalformed) {
  serve::SampleBatch batch = full_batch();
  batch.push_back({"Totally_Made_Up.EVENT", 1.0});
  const serve::ValidatedBatch v = serve::validate_batch(batch);
  EXPECT_EQ(v.status, serve::BatchStatus::kMalformed);
  EXPECT_NE(v.detail.find("unknown event"), std::string::npos);
}

TEST(ServeSession, DuplicateEventIsMalformed) {
  serve::SampleBatch batch = full_batch();
  batch.push_back(batch.front());
  EXPECT_EQ(serve::validate_batch(batch).status,
            serve::BatchStatus::kMalformed);
}

TEST(ServeSession, NonFiniteAndNegativeCountsAreMalformed) {
  serve::SampleBatch batch = full_batch();
  batch.front().count = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(serve::validate_batch(batch).status,
            serve::BatchStatus::kMalformed);
  batch = full_batch();
  batch.front().count = std::numeric_limits<double>::infinity();
  EXPECT_EQ(serve::validate_batch(batch).status,
            serve::BatchStatus::kMalformed);
  batch = full_batch();
  batch.front().count = -1.0;
  EXPECT_EQ(serve::validate_batch(batch).status,
            serve::BatchStatus::kMalformed);
}

TEST(ServeSession, CounterOverflowIsMalformed) {
  serve::SampleBatch batch = full_batch();
  batch.front().count = 0x1p49;  // beyond a 48-bit Westmere counter
  EXPECT_EQ(serve::validate_batch(batch).status,
            serve::BatchStatus::kMalformed);
}

TEST(ServeSession, MissingNormalizerIsUnusableNotMalformed) {
  serve::SampleBatch batch;
  for (const pmu::EventInfo& info : pmu::westmere_event_table())
    if (info.name != "Instructions_Retired")
      batch.push_back({std::string(info.name), 1000.0});
  const serve::ValidatedBatch v = serve::validate_batch(batch);
  EXPECT_EQ(v.status, serve::BatchStatus::kUnusable);
  EXPECT_EQ(serve::validate_batch({}).status, serve::BatchStatus::kUnusable);
}

TEST(ServeSession, PartialBatchYieldsNaNFeatureSlots) {
  // Only the normalizer and one event present: usable, with NaN in the
  // missing slots for the C4.5 fractional-instance machinery.
  serve::SampleBatch batch{{"Instructions_Retired", 1000000.0},
                           {"Snoop_Response.HIT_M", 400.0}};
  const serve::ValidatedBatch v = serve::validate_batch(batch);
  ASSERT_EQ(v.status, serve::BatchStatus::kOk);
  bool any_nan = false, any_finite = false;
  for (const double x : v.features.values())
    (std::isnan(x) ? any_nan : any_finite) = true;
  EXPECT_TRUE(any_nan);
  EXPECT_TRUE(any_finite);
}

TEST(ServeSession, EveryTable2NameLandsInItsOwnSlot) {
  for (const pmu::EventInfo& info : pmu::westmere_event_table()) {
    const std::string name(info.name);
    const auto slot = static_cast<std::size_t>(info.id);
    serve::SampleBatch batch{{"Instructions_Retired", 1000.0}};
    if (info.id != pmu::WestmereEvent::kInstructionsRetired)
      batch.push_back({name, 250.0});
    const serve::ValidatedBatch v = serve::validate_batch(batch);
    ASSERT_EQ(v.status, serve::BatchStatus::kOk) << name;
    // The normalizer has no feature slot: every slot stays missing.
    for (std::size_t i = 0; i < pmu::kNumFeatures; ++i) {
      if (i == slot)
        EXPECT_DOUBLE_EQ(v.features.at(i), 0.25) << name;
      else
        EXPECT_TRUE(std::isnan(v.features.at(i))) << name << " slot " << i;
    }
  }
}

TEST(ServeSession, OneCharacterVariantOfANameIsMalformed) {
  for (const pmu::EventInfo& info : pmu::westmere_event_table()) {
    const std::string name(info.name);
    std::string swapped = name;
    swapped.back() = swapped.back() == 'X' ? 'Y' : 'X';
    for (const std::string& variant :
         {swapped, name.substr(0, name.size() - 1), name + "_", "_" + name}) {
      serve::SampleBatch batch = full_batch();
      batch.push_back({variant, 1.0});
      const serve::ValidatedBatch v = serve::validate_batch(batch);
      EXPECT_EQ(v.status, serve::BatchStatus::kMalformed) << variant;
      EXPECT_EQ(v.detail, "unknown event '" + variant + "'");
    }
  }
}

// ---- circuit breaker -------------------------------------------------------

/// Trips a closed breaker with kTripAfter consecutive faults at `step`.
void trip(serve::CircuitBreaker& breaker, std::uint64_t step) {
  for (int k = 0; k < serve::CircuitBreaker::kTripAfter; ++k)
    breaker.on_failure(step);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFaults) {
  serve::CircuitBreaker breaker(/*seed=*/7);
  EXPECT_TRUE(breaker.allow(0));
  breaker.on_failure(0);
  breaker.on_failure(1);
  EXPECT_FALSE(breaker.open()) << "two faults must not trip the breaker";
  breaker.on_failure(2);
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.allow(2)) << "backoff cannot elapse instantly";
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  serve::CircuitBreaker breaker(/*seed=*/7);
  breaker.on_failure(0);
  breaker.on_failure(1);
  breaker.on_success();
  breaker.on_failure(2);
  breaker.on_failure(3);
  EXPECT_FALSE(breaker.open()) << "a success must clear the fault streak";
}

TEST(CircuitBreaker, HalfOpenProbeClosesOnSuccessReopensOnFailure) {
  serve::CircuitBreaker breaker(/*seed=*/7);
  trip(breaker, 0);
  ASSERT_TRUE(breaker.open());
  // The first trip re-probes after exactly the 4-step backoff base.
  EXPECT_FALSE(breaker.allow(3));
  ASSERT_TRUE(breaker.allow(4));
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::kHalfOpen);
  breaker.on_success();
  EXPECT_FALSE(breaker.open());

  trip(breaker, 200);
  // Later backoffs are in [base, cap]; by base+cap steps it has elapsed.
  ASSERT_TRUE(breaker.allow(300));
  breaker.on_failure(300);  // failed probe: reopen, longer backoff
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 3);
  EXPECT_FALSE(breaker.allow(301));
}

TEST(CircuitBreaker, BackoffScheduleIsDeterministic) {
  serve::CircuitBreaker a(/*seed=*/7);
  serve::CircuitBreaker b(/*seed=*/7);
  for (std::uint64_t step = 0; step < 200; step += 10) {
    trip(a, step);
    trip(b, step);
    for (std::uint64_t probe = step; probe < step + 10; ++probe)
      EXPECT_EQ(a.allow(probe), b.allow(probe)) << "step " << probe;
  }
  EXPECT_EQ(a.describe(), b.describe());
}

// ---- Server state machine --------------------------------------------------

/// Detector trained on the reduced mini-program grid, shared across the
/// server tests (training costs a few seconds once).
const core::FalseSharingDetector& shared_detector() {
  static const core::FalseSharingDetector detector = [] {
    core::FalseSharingDetector d;
    d.train(core::collect_training_data(core::TrainingConfig::reduced()));
    return d;
  }();
  return detector;
}

serve::ServeConfig small_config() {
  serve::ServeConfig config;
  config.queue_depth = 8;
  config.max_sessions = 4;
  config.deadline_steps = 50;
  config.idle_timeout_steps = 20;
  return config;
}

TEST(ServeServer, ConfigValidateRejectsBadValues) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.queue_depth = 0;
  EXPECT_THROW(serve::Server(shared_detector(), pool, config),
               std::runtime_error);
}

TEST(ServeServer, SessionReachesTerminalVerdictOrAbstention) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  for (std::uint64_t j = 0; j < 3; ++j)
    ASSERT_EQ(server.submit(1, full_batch(1.0 + 0.1 * j), j).status,
              serve::Submit::kAccepted);
  server.close_session(1, 3);
  std::vector<serve::SessionRecord> records;
  for (std::uint64_t step = 4; step < 10 && records.empty(); ++step) {
    auto out = server.tick(step, 4);
    records.insert(records.end(), out.begin(), out.end());
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_TRUE(records[0].outcome == serve::Outcome::kVerdict ||
              records[0].outcome == serve::Outcome::kAbstained);
  EXPECT_EQ(server.snapshot().terminal_records(), 1u);
}

TEST(ServeServer, AdmissionCapGivesRetryAfter) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  for (std::uint64_t id = 0; id < 4; ++id)
    ASSERT_EQ(server.open_session(id, 0).admission,
              serve::Admission::kAdmitted);
  const serve::AdmitResult r = server.open_session(99, 0);
  EXPECT_EQ(r.admission, serve::Admission::kRetryAfter);
  EXPECT_GT(r.retry_after_steps, 0u);
  EXPECT_EQ(server.open_session(2, 0).admission, serve::Admission::kDuplicate);
}

TEST(ServeServer, MalformedBatchQuarantinesSessionNotServer) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  serve::SampleBatch garbage{{"Not_A_Westmere_Event", 1.0}};
  const serve::SubmitResult r = server.submit(1, garbage, 1);
  EXPECT_EQ(r.status, serve::Submit::kQuarantined);
  EXPECT_NE(r.detail.find("unknown event"), std::string::npos);
  // The session is terminally gone; the server keeps serving.
  EXPECT_EQ(server.submit(1, full_batch(), 2).status,
            serve::Submit::kUnknownSession);
  ASSERT_EQ(server.open_session(2, 2).admission, serve::Admission::kAdmitted);
  const auto records = server.tick(3, 4);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kQuarantined);
  EXPECT_EQ(server.snapshot().quarantined, 1u);
}

TEST(ServeServer, DeadlineAndIdleTimeoutsProduceExpiredRecords) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.deadline_steps = 30;
  config.idle_timeout_steps = 5;
  serve::Server server(shared_detector(), pool, config);
  // Session 1 goes idle (never closed, no activity past step 0); session 2
  // keeps submitting but overruns the absolute deadline.
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  ASSERT_EQ(server.open_session(2, 0).admission, serve::Admission::kAdmitted);
  std::vector<serve::SessionRecord> records;
  for (std::uint64_t step = 1; step <= 31; ++step) {
    if (step % 3 == 0) server.submit(2, full_batch(), step);
    auto out = server.tick(step, 4);
    records.insert(records.end(), out.begin(), out.end());
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kExpired);
  EXPECT_LE(records[0].final_step, 6u);  // idle fired, not the deadline
  EXPECT_EQ(records[1].id, 2u);
  EXPECT_EQ(records[1].outcome, serve::Outcome::kExpired);
  EXPECT_EQ(records[1].final_step, 30u);
}

TEST(ServeServer, CancelledSessionFinalizesWithCancelledRecord) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  server.submit(1, full_batch(), 1);
  server.cancel_session(1);
  const auto records = server.tick(2, 4);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kCancelled);
}

TEST(ServeServer, QueuePressureDegradesNewSessionsToShed) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.queue_depth = 4;  // 3 of 4 slots is exactly the 0.75 watermark
  serve::Server server(shared_detector(), pool, config);
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  for (std::uint64_t j = 0; j < 3; ++j)
    ASSERT_EQ(server.submit(1, full_batch(), 1).status,
              serve::Submit::kAccepted);
  EXPECT_EQ(server.snapshot().state, serve::ServerState::kShedding);
  const serve::AdmitResult late = server.open_session(2, 1);
  EXPECT_EQ(late.admission, serve::Admission::kDegraded);
  server.close_session(2, 2);
  // No service this tick (rate 0 processes nothing), but the degraded
  // session still finalizes — to an explicit shed abstention.
  std::vector<serve::SessionRecord> records;
  for (std::uint64_t step = 2; step < 6 && records.empty(); ++step)
    records = server.tick(step, 0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 2u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kShed);
}

TEST(ServeServer, PersistentOverflowShedsTheSession) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.queue_depth = 1;
  serve::Server server(shared_detector(), pool, config);
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  ASSERT_EQ(server.submit(1, full_batch(), 1).status, serve::Submit::kAccepted);
  const serve::SubmitResult first = server.submit(1, full_batch(), 1);
  EXPECT_EQ(first.status, serve::Submit::kRetryAfter);
  EXPECT_GT(first.retry_after_steps, 0u);
  for (std::uint64_t step = 2; step <= serve::kMaxRetryAfter; ++step)
    EXPECT_EQ(server.submit(1, full_batch(), step).status,
              serve::Submit::kRetryAfter);
  // One rejection beyond kMaxRetryAfter sheds the session.
  EXPECT_EQ(server.submit(1, full_batch(), serve::kMaxRetryAfter + 1).status,
            serve::Submit::kRetryAfter);
  server.close_session(1, serve::kMaxRetryAfter + 2);
  const auto records = server.drain(serve::kMaxRetryAfter + 3, 4);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kShed);
  EXPECT_GE(server.snapshot().retry_afters, serve::kMaxRetryAfter + 1);
}

TEST(ServeServer, FullQueueRejectsUntilATickFreesASlot) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.queue_depth = 4;
  // No injector: the rejection below comes from a really full queue.
  serve::Server server(shared_detector(), pool, config);
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  ASSERT_EQ(server.open_session(2, 0).admission, serve::Admission::kAdmitted);
  // Session 1's batch is the oldest; session 2's three fill the queue.
  ASSERT_EQ(server.submit(1, full_batch(), 0).status, serve::Submit::kAccepted);
  for (int j = 0; j < 3; ++j)
    ASSERT_EQ(server.submit(2, full_batch(), 0).status,
              serve::Submit::kAccepted);
  const serve::SubmitResult full = server.submit(2, full_batch(), 0);
  EXPECT_EQ(full.status, serve::Submit::kRetryAfter);
  EXPECT_GT(full.retry_after_steps, 0u);
  serve::HealthSnapshot health = server.snapshot();
  EXPECT_EQ(health.queue_size, 4u);
  EXPECT_EQ(health.queue_capacity, 4u);
  EXPECT_EQ(health.retry_afters, 1u);

  // A tick that serves one batch serves the oldest: session 1's, which
  // leaves session 1 ready, so it is classified in the same tick.
  server.close_session(1, 1);
  const auto records = server.tick(1, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kVerdict);
  EXPECT_EQ(records[0].verdict.repeats, 1u);
  EXPECT_EQ(server.snapshot().queue_size, 3u);

  // The freed slot takes the retried batch.
  EXPECT_EQ(server.submit(2, full_batch(), 2).status,
            serve::Submit::kAccepted);
  health = server.snapshot();
  EXPECT_EQ(health.queue_size, 4u);
  EXPECT_EQ(health.batches_accepted, 5u);
}

TEST(ServeServer, ClassifyFaultsTripBreakerIntoAbstainOnly) {
  par::ThreadPool pool(1);
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.throw_rate = 1.0;    // every classify attempt throws...
  plan.throw_attempts = 10;  // ...on all supervised retries
  const fault::FaultInjector injector(plan);
  serve::Server server(shared_detector(), pool, small_config(), &injector);

  // One session per step: the breaker trips on the third fault and stays
  // open for its 4-step first backoff, so the fourth session meets it.
  std::vector<serve::SessionRecord> records;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    // The breaker never *blocks* admission — once it is open, new sessions
    // are admitted degraded (destined for an explicit shed abstention).
    const serve::Admission admission = server.open_session(id, id).admission;
    ASSERT_TRUE(admission == serve::Admission::kAdmitted ||
                admission == serve::Admission::kDegraded);
    server.submit(id, full_batch(), id);
    server.close_session(id, id);
    auto out = server.tick(id, 4);
    records.insert(records.end(), out.begin(), out.end());
  }
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].outcome, serve::Outcome::kAbstained);
  EXPECT_EQ(records[1].outcome, serve::Outcome::kAbstained);
  EXPECT_EQ(records[2].outcome, serve::Outcome::kAbstained);
  // By the fourth session the breaker (3 faults) is open: abstain-only.
  EXPECT_EQ(records[3].outcome, serve::Outcome::kShed);
  const serve::HealthSnapshot health = server.snapshot();
  EXPECT_TRUE(health.breaker_open);
  EXPECT_EQ(health.state, serve::ServerState::kAbstainOnly);
  EXPECT_GT(health.classify_faults, 0u);
  EXPECT_GE(health.breaker_trips, 1);
}

TEST(ServeServer, DrainFinalizesEverySessionAndClosesAdmission) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(server.open_session(id, 0).admission,
              serve::Admission::kAdmitted);
    server.submit(id, full_batch(), 1);
    // Session 3 is never closed by its client — drain closes it.
  }
  const auto records = server.drain(2, 2);
  EXPECT_EQ(records.size(), 3u);
  const serve::HealthSnapshot health = server.snapshot();
  EXPECT_EQ(health.admitted, 3u);
  EXPECT_EQ(health.terminal_records(), 3u);
  EXPECT_EQ(health.open_sessions, 0u);
  EXPECT_EQ(server.open_session(9, 100).admission, serve::Admission::kClosed);
  EXPECT_EQ(server.snapshot().state, serve::ServerState::kDraining);
}

// ---- tick edge cases: exact records, in production order -------------------

/// One record as "<to_string> <opened>-><final> <detail>".
std::string line(const serve::SessionRecord& r) {
  return r.to_string() + " " + std::to_string(r.opened_step) + "->" +
         std::to_string(r.final_step) + " " + r.detail;
}

std::vector<std::string> lines(const std::vector<serve::SessionRecord>& rs) {
  std::vector<std::string> out;
  for (const serve::SessionRecord& r : rs) out.push_back(line(r));
  return out;
}

/// Ticks every step in [from, to] at `rate`, with `before(step)` run just
/// ahead of each tick, and returns the records in production order.
template <class Before>
std::vector<std::string> tick_range(serve::Server& server, std::uint64_t from,
                                    std::uint64_t to, std::size_t rate,
                                    Before before) {
  std::vector<std::string> out;
  for (std::uint64_t step = from; step <= to; ++step) {
    before(step);
    for (std::string& l : lines(server.tick(step, rate)))
      out.push_back(std::move(l));
  }
  return out;
}

TEST(ServeServer, ReopenedIdIsANewSession) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  // Session 1 finalizes by cancellation; its wake-up (idle, step 20) stays
  // behind in the heap.
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  server.submit(1, full_batch(), 0);
  EXPECT_TRUE(server.tick(1, 4).empty());
  server.cancel_session(1);
  EXPECT_EQ(lines(server.tick(2, 4)),
            (std::vector<std::string>{
                "1:cancelled:unknown 0->2 cancelled mid-flight"}));

  // Reopened at step 3, id 1 owes nothing to its first session: the old
  // wake-up at step 20 must not expire it, and it re-arms at its own idle
  // step when a submit at step 18 keeps it alive.
  ASSERT_EQ(server.open_session(1, 3).admission, serve::Admission::kAdmitted);
  // Session 2 is cancelled, quarantined and reopened before the next tick:
  // the cancellation died with its first session.
  ASSERT_EQ(server.open_session(2, 3).admission, serve::Admission::kAdmitted);
  server.cancel_session(2);
  EXPECT_EQ(server.submit(2, {{"Not_A_Westmere_Event", 1.0}}, 3).status,
            serve::Submit::kQuarantined);
  ASSERT_EQ(server.open_session(2, 3).admission, serve::Admission::kAdmitted);

  const auto records = tick_range(server, 3, 60, 4, [&](std::uint64_t step) {
    if (step == 18) server.submit(1, full_batch(), step);
  });
  const std::string idle = "idle: no client activity for 20 steps";
  EXPECT_EQ(records,
            (std::vector<std::string>{
                "2:quarantined:unknown 3->3 unknown event "
                "'Not_A_Westmere_Event'",
                "2:expired:unknown 3->23 " + idle,
                "1:expired:unknown 3->38 " + idle}));
  EXPECT_EQ(server.snapshot().open_sessions, 0u);
}

TEST(ServeServer, CancelAfterCloseWinsOverTheVerdict) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  // Ready (closed, batch processed this tick) and cancelled: the expiry
  // phase runs first, so the session ends cancelled, never classified.
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  server.submit(1, full_batch(), 0);
  server.close_session(1, 1);
  server.cancel_session(1);
  EXPECT_EQ(lines(server.tick(1, 4)),
            (std::vector<std::string>{
                "1:cancelled:unknown 0->1 cancelled mid-flight"}));
  server.cancel_session(1);  // no longer open: ignored
  EXPECT_TRUE(server.tick(2, 4).empty());

  // Closed with its batch still queued, then cancelled.
  ASSERT_EQ(server.open_session(2, 2).admission, serve::Admission::kAdmitted);
  server.submit(2, full_batch(), 2);
  server.close_session(2, 2);
  server.cancel_session(2);
  EXPECT_EQ(lines(server.tick(3, 0)),
            (std::vector<std::string>{
                "2:cancelled:unknown 2->3 cancelled mid-flight"}));
  EXPECT_TRUE(server.tick(4, 4).empty());  // its orphaned batch drains
  const serve::HealthSnapshot health = server.snapshot();
  EXPECT_EQ(health.cancelled, 2u);
  EXPECT_EQ(health.terminal_records(), 2u);
  EXPECT_EQ(health.open_sessions, 0u);
  EXPECT_EQ(health.queue_size, 0u);
}

TEST(ServeServer, ZeroDeadlineOrIdleTimeoutDisablesThatExpiry) {
  struct Case {
    std::uint64_t deadline, idle;
    std::vector<std::string> records;
    std::size_t still_open;
  };
  const std::vector<Case> cases = {
      {0, 5, {"1:expired:unknown 0->5 idle: no client activity for 5 steps"},
       1},
      {30, 0,
       {"1:expired:unknown 0->30 deadline: no verdict within 30 steps",
        "2:expired:unknown 0->30 deadline: no verdict within 30 steps"},
       0},
      {0, 0, {}, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("deadline " + std::to_string(c.deadline) + ", idle " +
                 std::to_string(c.idle));
    par::ThreadPool pool(1);
    serve::ServeConfig config = small_config();
    config.deadline_steps = c.deadline;
    config.idle_timeout_steps = c.idle;
    serve::Server server(shared_detector(), pool, config);
    // Session 1 never speaks. Session 2 closes with a batch that is never
    // serviced (rate 0), so only a deadline can end it.
    ASSERT_EQ(server.open_session(1, 0).admission,
              serve::Admission::kAdmitted);
    ASSERT_EQ(server.open_session(2, 0).admission,
              serve::Admission::kAdmitted);
    server.submit(2, full_batch(), 0);
    server.close_session(2, 1);
    EXPECT_EQ(tick_range(server, 1, 100, 0, [](std::uint64_t) {}), c.records);
    EXPECT_TRUE(server.tick(1000000, 0).empty());
    EXPECT_EQ(server.snapshot().open_sessions, c.still_open);
  }
}

TEST(ServeServer, SubmitJustBeforeIdleTimeoutDefersExpiry) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.idle_timeout_steps = 5;
  serve::Server server(shared_detector(), pool, config);
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  // The wake-up armed for step 5 finds the client active at step 4 and
  // re-arms for step 9.
  const auto records = tick_range(server, 1, 20, 4, [&](std::uint64_t step) {
    if (step == 4) server.submit(1, full_batch(), step);
  });
  EXPECT_EQ(records,
            (std::vector<std::string>{
                "1:expired:unknown 0->9 idle: no client activity for 5 "
                "steps"}));
}

TEST(ServeServer, SeveralTicksAtOneStep) {
  par::ThreadPool pool(1);
  serve::ServeConfig config = small_config();
  config.idle_timeout_steps = 5;
  serve::Server server(shared_detector(), pool, config);
  ASSERT_EQ(server.open_session(1, 0).admission, serve::Admission::kAdmitted);
  ASSERT_EQ(server.open_session(2, 3).admission, serve::Admission::kAdmitted);
  ASSERT_EQ(server.open_session(3, 3).admission, serve::Admission::kAdmitted);
  const std::string idle = "idle: no client activity for 5 steps";
  EXPECT_EQ(lines(server.tick(5, 4)),
            (std::vector<std::string>{"1:expired:unknown 0->5 " + idle}));
  EXPECT_TRUE(server.tick(5, 4).empty());
  server.close_session(2, 5);
  EXPECT_EQ(lines(server.tick(5, 4)),
            (std::vector<std::string>{
                "2:abstained:unknown 3->5 unknown (0/0 runs classified)"}));
  server.cancel_session(3);
  EXPECT_EQ(lines(server.tick(5, 4)),
            (std::vector<std::string>{
                "3:cancelled:unknown 3->5 cancelled mid-flight"}));
  EXPECT_TRUE(server.tick(5, 4).empty());
  EXPECT_EQ(server.snapshot().open_sessions, 0u);
}

TEST(ServeServer, DrainServicesQueuedBatchesBeforeFinalizing) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  for (std::uint64_t id = 1; id <= 4; ++id)
    ASSERT_EQ(server.open_session(id, 0).admission,
              serve::Admission::kAdmitted);
  // FIFO: 1, 2, 3, 1, 3. Sessions 2 and 4 are never closed by their
  // clients, and session 4 never submits: drain makes it ready at once.
  for (const std::uint64_t id : {1u, 2u, 3u})
    ASSERT_EQ(server.submit(id, full_batch(), 1).status,
              serve::Submit::kAccepted);
  for (const std::uint64_t id : {1u, 3u})
    ASSERT_EQ(server.submit(id, full_batch(), 2).status,
              serve::Submit::kAccepted);
  server.close_session(1, 3);
  server.close_session(3, 3);
  EXPECT_TRUE(server.tick(3, 0).empty());

  // One batch per drain tick: each session finalizes on the tick that
  // services its last batch, not before.
  const trainers::Mode mode =
      shared_detector().classify(serve::validate_batch(full_batch()).features);
  const auto verdict = [mode](std::uint64_t id, std::size_t runs,
                              std::uint64_t final_step) {
    serve::SessionRecord r;
    r.id = id;
    r.outcome = serve::Outcome::kVerdict;
    r.verdict.known = true;
    r.verdict.mode = mode;
    r.verdict.confidence = 1.0;
    r.verdict.repeats = runs;
    r.verdict.classified = runs;
    r.verdict.votes[static_cast<std::size_t>(core::label_of(mode))] = runs;
    r.detail = r.verdict.to_string();
    r.final_step = final_step;
    return line(r);
  };
  EXPECT_EQ(lines(server.drain(4, 1)),
            (std::vector<std::string>{
                "4:abstained:unknown 0->4 unknown (0/0 runs classified)",
                verdict(2, 1, 5), verdict(1, 2, 7), verdict(3, 2, 8)}));
  EXPECT_EQ(server.snapshot().open_sessions, 0u);
  EXPECT_EQ(server.snapshot().queue_size, 0u);
}

TEST(ServeServer, ClassifyRetrySucceedsOnSecondAttempt) {
  par::ThreadPool pool(1);
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.throw_rate = 1.0;    // every session's first classify attempt throws,
  plan.throw_attempts = 1;  // and its retry succeeds
  const fault::FaultInjector injector(plan);
  serve::Server faulty(shared_detector(), pool, small_config(), &injector);
  serve::Server clean(shared_detector(), pool, small_config());

  // More sessions than the breaker's trip count, all in one tick: a fault
  // the retry absorbs must not count toward the breaker.
  const std::uint64_t sessions = serve::CircuitBreaker::kTripAfter + 1;
  for (serve::Server* server : {&faulty, &clean})
    for (std::uint64_t id = 1; id <= sessions; ++id) {
      ASSERT_EQ(server->open_session(id, 0).admission,
                serve::Admission::kAdmitted);
      ASSERT_EQ(server->submit(id, full_batch(), 0).status,
                serve::Submit::kAccepted);
      server->close_session(id, 0);
    }
  const auto records = faulty.tick(1, 8);
  ASSERT_EQ(records.size(), sessions);
  for (const serve::SessionRecord& r : records)
    EXPECT_EQ(r.outcome, serve::Outcome::kVerdict) << line(r);
  EXPECT_EQ(lines(records), lines(clean.tick(1, 8)));

  const serve::HealthSnapshot health = faulty.snapshot();
  EXPECT_EQ(health.classify_faults, 0u);
  EXPECT_FALSE(health.breaker_open);
  EXPECT_EQ(health.breaker_trips, 0);
  EXPECT_EQ(health.classify_calls, sessions);
}

// ---- classify timing --------------------------------------------------------

/// Plays one fixed client script against a server, to completion.
void run_script(serve::Server& server) {
  std::uint64_t step = 0;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(server.open_session(id, ++step).admission,
              serve::Admission::kAdmitted);
    for (std::uint64_t j = 0; j < 3; ++j)
      server.submit(id, full_batch(1.0 + 0.25 * static_cast<double>(id + j)),
                    ++step);
    server.close_session(id, ++step);
    // Service each session fully before the next opens, so the small test
    // queue never crosses the shed watermark.
    server.tick(++step, 8);
  }
  server.drain(step + 1, 8);
}

TEST(ServeServer, SnapshotReportsClassifyPercentiles) {
  par::ThreadPool pool(1);
  serve::Server server(shared_detector(), pool, small_config());
  run_script(server);
  serve::HealthSnapshot health = server.snapshot();
  EXPECT_EQ(health.classify_calls, 3u);
  EXPECT_GT(health.classify_p50_us, 0.0);
  EXPECT_GE(health.classify_p99_us, health.classify_p50_us);
  EXPECT_NE(health.to_string().find("classify-calls=" +
                                    std::to_string(health.classify_calls)),
            std::string::npos);

  // Past the timing window, every call is still counted; the percentiles
  // cover the most recent kClassifyWindow calls.
  serve::Server busy(shared_detector(), pool, small_config());
  const std::uint64_t calls = serve::kClassifyWindow + 100;
  for (std::uint64_t id = 0; id < calls; ++id) {
    ASSERT_EQ(busy.open_session(id, id).admission,
              serve::Admission::kAdmitted);
    ASSERT_EQ(busy.submit(id, full_batch(), id).status,
              serve::Submit::kAccepted);
    busy.close_session(id, id);
    ASSERT_EQ(busy.tick(id, 1).size(), 1u);
  }
  health = busy.snapshot();
  EXPECT_EQ(health.classify_calls, calls);
  EXPECT_EQ(health.verdicts_good + health.verdicts_bad_fs +
                health.verdicts_bad_ma + health.abstained,
            calls);
  EXPECT_GT(health.classify_p50_us, 0.0);
  EXPECT_GE(health.classify_p99_us, health.classify_p50_us);
}

// ---- concurrent clients -----------------------------------------------------

TEST(ServeServer, ConcurrentClientsAreConserved) {
  // Four client threads open, submit to and close disjoint ids while a
  // fifth thread ticks and the classify fan-out runs on two pool workers.
  // The caps are small, so clients meet retry-after on opens and submits.
  constexpr std::uint64_t kClients = 4;
  constexpr std::uint64_t kSessionsPerClient = 40;
  par::ThreadPool pool(2);
  serve::ServeConfig config = small_config();
  // No timeouts: how fast the ticker runs must not decide which sessions
  // reach the classifier.
  config.deadline_steps = 0;
  config.idle_timeout_steps = 0;
  serve::Server server(shared_detector(), pool, config);
  std::atomic<std::uint64_t> clock{0};  // virtual time; the ticker moves it
  std::atomic<std::uint64_t> clients_done{0};

  std::vector<serve::SessionRecord> records;
  std::thread ticker([&] {
    for (;;) {
      const bool last = clients_done.load() == kClients;
      for (serve::SessionRecord& r : server.tick(++clock, 2))
        records.push_back(std::move(r));
      if (last) break;
      std::this_thread::yield();
    }
    for (serve::SessionRecord& r : server.drain(++clock, 2))
      records.push_back(std::move(r));
  });
  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kSessionsPerClient; ++i) {
        const std::uint64_t id = c * kSessionsPerClient + i;
        serve::Admission a = serve::Admission::kRetryAfter;
        while ((a = server.open_session(id, clock).admission) ==
               serve::Admission::kRetryAfter)
          std::this_thread::yield();
        EXPECT_TRUE(a == serve::Admission::kAdmitted ||
                    a == serve::Admission::kDegraded)
            << "session " << id;
        // Full-queue rejections retry; after kMaxRetryAfter of them the
        // session is shed and absorbs its batches.
        for (int j = 0; j < 2; ++j)
          while (server.submit(id, full_batch(1.0 + j), clock).status ==
                 serve::Submit::kRetryAfter)
            std::this_thread::yield();
        server.close_session(id, clock);
      }
      ++clients_done;
    });
  for (std::thread& t : clients) t.join();
  ticker.join();

  // Every session was admitted, and each got exactly one record.
  const std::uint64_t sessions = kClients * kSessionsPerClient;
  std::vector<int> seen(sessions, 0);
  for (const serve::SessionRecord& r : records) {
    ASSERT_LT(r.id, sessions);
    ++seen[r.id];
  }
  for (std::uint64_t id = 0; id < sessions; ++id)
    EXPECT_EQ(seen[id], 1) << "session " << id;

  // FIFO per client: a client queues each session's batches behind its
  // previous session's, so its classified sessions finalize in the order
  // it opened them. Shed sessions queue nothing and are exempt.
  std::vector<std::int64_t> last_classified(kClients, -1);
  for (const serve::SessionRecord& r : records) {
    if (r.outcome != serve::Outcome::kVerdict &&
        r.outcome != serve::Outcome::kAbstained)
      continue;
    std::int64_t& last = last_classified[r.id / kSessionsPerClient];
    EXPECT_GT(static_cast<std::int64_t>(r.id), last);
    last = static_cast<std::int64_t>(r.id);
  }
  const serve::HealthSnapshot health = server.snapshot();
  EXPECT_EQ(health.admitted, sessions);
  EXPECT_EQ(health.terminal_records(), sessions);
  EXPECT_EQ(health.open_sessions, 0u);
  EXPECT_EQ(health.queue_size, 0u);
}

}  // namespace

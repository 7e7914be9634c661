// Seeded chaos-drill tests for the streaming detection service: the three
// service contracts (determinism across --jobs, session conservation, zero
// false positives) asserted under every storm the drill can brew. These
// are the in-tree mirror of bench/serve_drill; the bench runs bigger
// populations, this suite runs small ones on every ctest invocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/training.hpp"
#include "serve/drill.hpp"

namespace {

using namespace fsml;

const core::FalseSharingDetector& shared_detector() {
  static const core::FalseSharingDetector detector = [] {
    core::FalseSharingDetector d;
    d.train(core::collect_training_data(core::TrainingConfig::reduced()));
    return d;
  }();
  return detector;
}

const std::vector<core::EvalRun>& shared_templates() {
  static const std::vector<core::EvalRun> templates =
      serve::drill_templates(/*seed=*/42, /*jobs=*/2);
  return templates;
}

serve::DrillConfig small_drill() {
  serve::DrillConfig config;
  config.sessions = 18;
  config.max_batches_per_session = 3;
  config.arrival_spread_steps = 24;
  config.service_rate = 3;
  config.seed = 42;
  config.server.queue_depth = 12;
  config.server.seed = 42;
  return config;
}

serve::DrillConfig chaos_drill() {
  serve::DrillConfig config = small_drill();
  config.malformed_rate = 0.3;
  config.cancel_rate = 0.2;
  config.cancel_step = 5;
  config.faults.seed = 42;
  config.faults.stall_rate = 0.25;
  config.faults.stall_steps = 4;
  config.faults.overflow_rate = 0.2;
  config.faults.throw_rate = 0.3;
  config.faults.throw_attempts = 3;
  config.service_rate = 2;
  return config;
}

void expect_contracts(const serve::DrillReport& report) {
  EXPECT_EQ(report.lost_sessions, 0u)
      << "every admitted session must get a terminal record";
  EXPECT_EQ(report.false_positives, 0u)
      << "overload/chaos must degrade to abstention, never a false alarm";
  EXPECT_EQ(report.health.terminal_records(), report.admitted);
  EXPECT_EQ(report.records.size(), report.admitted);
}

TEST(ServeDrill, BaselineBitIdenticalAcrossJobs) {
  serve::DrillConfig one = small_drill();
  one.jobs = 1;
  serve::DrillConfig four = small_drill();
  four.jobs = 4;
  const serve::DrillReport a =
      serve::run_drill(shared_detector(), shared_templates(), one);
  const serve::DrillReport b =
      serve::run_drill(shared_detector(), shared_templates(), four);
  expect_contracts(a);
  expect_contracts(b);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.records.size(), b.records.size());
  EXPECT_GT(a.verdicts + a.abstained, 0u) << "baseline should classify";
}

TEST(ServeDrill, CombinedChaosBitIdenticalAcrossJobs) {
  serve::DrillConfig one = chaos_drill();
  one.jobs = 1;
  serve::DrillConfig four = chaos_drill();
  four.jobs = 4;
  const serve::DrillReport a =
      serve::run_drill(shared_detector(), shared_templates(), one);
  const serve::DrillReport b =
      serve::run_drill(shared_detector(), shared_templates(), four);
  expect_contracts(a);
  expect_contracts(b);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // The storm actually stormed: at least one of each chaos class fired.
  EXPECT_GT(a.quarantined, 0u);
  EXPECT_GT(a.health.classify_faults, 0u);
}

TEST(ServeDrill, RepeatedRunsAreBitIdentical) {
  const serve::DrillConfig config = chaos_drill();
  const serve::DrillReport a =
      serve::run_drill(shared_detector(), shared_templates(), config);
  const serve::DrillReport b =
      serve::run_drill(shared_detector(), shared_templates(), config);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.health.retry_afters, b.health.retry_afters);
}

TEST(ServeDrill, DifferentSeedsGiveDifferentStorms) {
  serve::DrillConfig other = chaos_drill();
  other.seed = 1234;
  other.faults.seed = 1234;
  other.server.seed = 1234;
  const serve::DrillReport a =
      serve::run_drill(shared_detector(), shared_templates(), chaos_drill());
  const serve::DrillReport b =
      serve::run_drill(shared_detector(), shared_templates(), other);
  expect_contracts(b);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(ServeDrill, MalformedStreamsAllQuarantineCleanly) {
  serve::DrillConfig config = small_drill();
  config.malformed_rate = 1.0;
  const serve::DrillReport report =
      serve::run_drill(shared_detector(), shared_templates(), config);
  expect_contracts(report);
  EXPECT_EQ(report.quarantined, report.admitted)
      << "every stream lies once, so every session must quarantine";
  EXPECT_EQ(report.verdicts, 0u);
}

TEST(ServeDrill, CancellationYieldsExplicitCancelledRecords) {
  serve::DrillConfig config = small_drill();
  config.cancel_rate = 1.0;
  config.cancel_step = 3;
  const serve::DrillReport report =
      serve::run_drill(shared_detector(), shared_templates(), config);
  expect_contracts(report);
  EXPECT_GT(report.cancelled, 0u);
}

TEST(ServeDrill, OverloadShedsInsteadOfGuessing) {
  serve::DrillConfig config = small_drill();
  config.server.queue_depth = 2;  // drastically undersized on purpose
  config.server.deadline_steps = 24;  // and impatient
  config.service_rate = 1;
  config.arrival_spread_steps = 8;  // everyone arrives almost at once
  const serve::DrillReport report =
      serve::run_drill(shared_detector(), shared_templates(), config);
  expect_contracts(report);
  EXPECT_GT(report.shed + report.expired + report.abstained, 0u);
  EXPECT_GT(report.health.retry_afters, 0u);
}

TEST(ServeDrill, ValidateRejectsBadConfig) {
  serve::DrillConfig config = small_drill();
  config.sessions = 0;
  EXPECT_THROW(serve::run_drill(shared_detector(), shared_templates(), config),
               std::runtime_error);
  config = small_drill();
  config.malformed_rate = 1.5;
  EXPECT_THROW(serve::run_drill(shared_detector(), shared_templates(), config),
               std::runtime_error);
  // A session may not plan more batches than the server lets it vote.
  config = small_drill();
  config.max_batches_per_session = serve::kMaxBatchesPerSession + 1;
  EXPECT_THROW(config.validate(), std::runtime_error);
  config.max_batches_per_session = serve::kMaxBatchesPerSession;
  EXPECT_NO_THROW(config.validate());
}

}  // namespace

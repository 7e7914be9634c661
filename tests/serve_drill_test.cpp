// Seeded chaos-drill tests for the streaming detection service: the three
// service contracts (determinism across --jobs, session conservation, zero
// false positives) asserted under every storm the drill can brew. These
// are the in-tree mirror of bench/serve_drill; the bench runs bigger
// populations, this suite runs small ones on every ctest invocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/training.hpp"
#include "serve/drill.hpp"
#include "util/crc32.hpp"

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

/// CRC-32 over the records in production order: each record's to_string(),
/// opened and final step, and detail. DrillReport::fingerprint sorts the
/// lines and leaves steps and details out, so it cannot see a record that
/// moved, came late or changed its reason.
std::uint32_t ordered_stream_crc(
    const std::vector<serve::SessionRecord>& records) {
  util::Crc32 crc;
  for (const serve::SessionRecord& r : records)
    crc.update(r.to_string() + " " + std::to_string(r.opened_step) + " " +
               std::to_string(r.final_step) + " " + r.detail + "\n");
  return crc.value();
}

TEST(ServeDrill, StormRecordStreamsArePinned) {
  // The seven storm scenarios of bench/serve_drill at 48 sessions, pinned
  // from the tick that scanned every open session; the indexed tick must
  // reproduce each stream byte for byte. (classify_saturation is a
  // throughput scenario, not a storm.)
  const std::map<std::string, std::uint32_t> pinned = {
      {"baseline_burst", 0x709160f5u},
      {"slow_clients_laggy_dequeue", 0xfd738c70u},
      {"malformed_streams", 0x2f2c4879u},
      {"queue_overflow", 0x7dd983dcu},
      {"classify_throws", 0xd5c01402u},
      {"mid_drill_cancellation", 0x5cb71633u},
      {"combined_chaos", 0xc6294fa0u},
  };
  std::size_t checked = 0;
  for (serve::DrillScenario& scenario : serve::drill_battery(48, 42)) {
    const auto it = pinned.find(scenario.name);
    if (it == pinned.end()) continue;
    scenario.config.jobs = 2;
    const serve::DrillReport report =
        serve::run_drill(shared_detector(), shared_templates(), scenario.config);
    expect_contracts(report);
    const std::uint32_t crc = ordered_stream_crc(report.records);
    EXPECT_EQ(crc, it->second)
        << scenario.name << " produced 0x" << std::hex << crc;
    ++checked;
  }
  EXPECT_EQ(checked, pinned.size());
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

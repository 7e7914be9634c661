// Tests for the second-stage alarm triage: demotion-cutoff validation, the
// priority computation pinned against hand-computed fixtures, demotion of
// low-credibility alarms to `unknown`, the anomaly/phase terms, and the
// two-stage sweep harness (including the acceptance bar: triage keeps zero
// false positives with >= 90% coverage under the moderate-noise preset and
// the zero-positive model flags >= 80% of the held-out bad runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "core/robustness.hpp"
#include "core/slices.hpp"
#include "core/training.hpp"
#include "core/triage.hpp"
#include "ml/zero_positive.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using trainers::Mode;

core::RobustVerdict verdict_of(Mode mode, double confidence,
                               bool known = true) {
  core::RobustVerdict v;
  v.known = known;
  v.mode = mode;
  v.confidence = confidence;
  v.repeats = 5;
  v.classified = known ? 5 : 0;
  return v;
}

/// Training collection shared by the harness tests (costs a few seconds,
/// collected once).
const core::TrainingData& training_data() {
  static const core::TrainingData data =
      core::collect_training_data(core::TrainingConfig::reduced());
  return data;
}

const core::FalseSharingDetector& trained_detector() {
  static const core::FalseSharingDetector detector = [] {
    core::FalseSharingDetector d;
    d.train(training_data());
    return d;
  }();
  return detector;
}

const core::TriageStage& fitted_stage() {
  static const core::TriageStage stage = [] {
    core::TriageStage s;
    s.set_anomaly_model(core::fit_zero_positive(training_data()));
    return s;
  }();
  return stage;
}

core::TriageConfig harness_config() {
  core::TriageConfig config;
  config.sweep.reduced = true;
  config.sweep.jobs = 2;
  return config;
}

TEST(TriageConfig, DemoteBelowMustBeInUnitRange) {
  EXPECT_NO_THROW(core::TriageStage{});
  EXPECT_NO_THROW(harness_config().validate());
  for (const double cutoff : {-0.1, 1.5, std::nan("")}) {
    EXPECT_THROW(core::TriageStage{cutoff}, std::runtime_error) << cutoff;
    core::TriageConfig config = harness_config();
    config.demote_below = cutoff;
    EXPECT_THROW(config.validate(), std::runtime_error) << cutoff;
  }
}

TEST(Triage, PriorityMatchesHandComputedFixture) {
  // No anomaly model, no slices: both terms neutral at 0.5. Default
  // weights (0.45, 0.30, 0.15, 0.10) sum to 1, so the priority is
  //   0.45*0.8 + 0.30*0.5 + 0.15*0.5 + 0.10*(0.5*8/16 + 0.25*0.4 + 0.25*0.2)
  //   = 0.36 + 0.15 + 0.075 + 0.10*0.40 = 0.625
  const core::TriageStage stage;
  core::AlarmContext context;
  context.threads = 8;
  context.hitm_remote_ratio = 0.4;
  context.dram_remote_ratio = 0.2;
  const core::TriagedAlarm alarm =
      stage.triage(verdict_of(Mode::kBadFs, 0.8), {}, context);
  EXPECT_NEAR(alarm.term_confidence, 0.80, 1e-12);
  EXPECT_NEAR(alarm.term_anomaly, 0.50, 1e-12);
  EXPECT_NEAR(alarm.term_phase, 0.50, 1e-12);
  EXPECT_NEAR(alarm.term_metadata, 0.40, 1e-12);
  EXPECT_NEAR(alarm.priority, 0.625, 1e-12);
  EXPECT_FALSE(alarm.demoted);
  EXPECT_TRUE(alarm.verdict.known);
  EXPECT_TRUE(std::isnan(alarm.anomaly_score));
  EXPECT_NE(alarm.to_string().find("bad-fs"), std::string::npos);
  EXPECT_NE(alarm.to_string().find("0.62"), std::string::npos);
}

TEST(Triage, PriorityOrdersByTreeConfidence) {
  const core::TriageStage stage;
  core::AlarmContext context;
  context.threads = 4;
  std::vector<double> priorities;
  for (const double confidence : {0.95, 0.7, 0.45})
    priorities.push_back(
        stage.triage(verdict_of(Mode::kBadMa, confidence), {}, context)
            .priority);
  EXPECT_TRUE(std::is_sorted(priorities.rbegin(), priorities.rend()));
  EXPECT_GT(priorities.front(), priorities.back());
}

TEST(Triage, LowPriorityAlarmDemotesToUnknown) {
  // conf 0.2, single thread, no locality:
  //   0.45*0.2 + 0.30*0.5 + 0.15*0.5 + 0.10*(0.5/16) = 0.318125 < 0.35
  const core::TriageStage stage;
  core::AlarmContext context;
  context.threads = 1;
  const core::TriagedAlarm alarm =
      stage.triage(verdict_of(Mode::kBadFs, 0.2), {}, context);
  EXPECT_NEAR(alarm.priority, 0.318125, 1e-12);
  EXPECT_TRUE(alarm.demoted);
  EXPECT_FALSE(alarm.verdict.known);
  EXPECT_NE(alarm.to_string().find("demoted to unknown"), std::string::npos);

  // A higher cutoff demotes the 0.625 fixture alarm too.
  context.threads = 8;
  context.hitm_remote_ratio = 0.4;
  context.dram_remote_ratio = 0.2;
  const core::TriagedAlarm strict_alarm = core::TriageStage(0.7).triage(
      verdict_of(Mode::kBadFs, 0.8), {}, context);
  EXPECT_TRUE(strict_alarm.demoted);
}

TEST(Triage, GoodAndUnknownVerdictsAreNeverDemoted) {
  const core::TriageStage stage;
  const core::AlarmContext context;  // threads=1: minimal priority

  const core::TriagedAlarm good =
      stage.triage(verdict_of(Mode::kGood, 0.2), {}, context);
  EXPECT_FALSE(good.demoted);
  EXPECT_TRUE(good.verdict.known);  // still a (low-priority) good verdict

  const core::TriagedAlarm unknown =
      stage.triage(verdict_of(Mode::kGood, 0.0, /*known=*/false), {}, context);
  EXPECT_FALSE(unknown.demoted);
  EXPECT_FALSE(unknown.verdict.known);
  EXPECT_NEAR(unknown.term_confidence, 0.0, 1e-12);
  EXPECT_NE(unknown.to_string().find("unknown"), std::string::npos);
}

TEST(Triage, AnomalyTermTracksReconstructionError) {
  // A zero-positive model over a synthetic 4D cluster: rows near the
  // cluster push the term below neutral, far-off rows push it above.
  std::vector<std::vector<double>> rows;
  util::SplitMix64 rng(99);
  for (std::size_t i = 0; i < 64; ++i) {
    const double t = static_cast<double>(i) / 64.0;
    const double wobble =
        static_cast<double>(rng.next() % 1000) / 1000.0 * 0.01;
    rows.push_back({t, 2.0 * t + wobble, 0.5 - t, 3.0 + wobble});
  }
  ml::ZeroPositiveModel model;
  model.fit(rows, {"a", "b", "c", "d"});

  core::TriageStage stage;
  stage.set_anomaly_model(std::move(model));
  ASSERT_TRUE(stage.has_anomaly_model());

  core::AlarmContext context;
  context.threads = 8;
  const core::RobustVerdict verdict = verdict_of(Mode::kBadFs, 0.8);

  const core::TriagedAlarm normal = stage.triage(verdict, rows.front(),
                                                 context);
  EXPECT_FALSE(std::isnan(normal.anomaly_score));
  EXPECT_FALSE(normal.anomalous);
  EXPECT_LT(normal.term_anomaly, 0.5);

  const std::vector<double> outlier = {5.0, -10.0, 4.0, -7.0};
  const core::TriagedAlarm weird = stage.triage(verdict, outlier, context);
  EXPECT_TRUE(weird.anomalous);
  EXPECT_GT(weird.term_anomaly, 0.5);
  EXPECT_GT(weird.priority, normal.priority);

  // Feature-width mismatch (or an empty span) falls back to neutral.
  const core::TriagedAlarm mismatch =
      stage.triage(verdict, std::vector<double>{1.0, 2.0}, context);
  EXPECT_TRUE(std::isnan(mismatch.anomaly_score));
  EXPECT_NEAR(mismatch.term_anomaly, 0.5, 1e-12);

  // Attaching an unfitted model is rejected up front (FSML_CHECK).
  core::TriageStage empty_stage;
  EXPECT_THROW(empty_stage.set_anomaly_model(ml::ZeroPositiveModel{}),
               std::logic_error);
  EXPECT_THROW(empty_stage.anomaly_model(), std::logic_error);
}

TEST(Triage, PhaseTermIsTheAgreeingSliceFraction) {
  // Timeline: 3 classified bad-fs slices, 1 classified good, 1 idle.
  std::vector<core::SliceVerdict> slices(5);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    slices[i].index = i;
    slices[i].classified = i != 4;
    slices[i].verdict = i == 3 ? Mode::kGood : Mode::kBadFs;
    slices[i].instructions = i == 4 ? 0 : 10'000;
  }
  const core::SliceReport report(std::move(slices), 50'000);

  const core::TriageStage stage;
  core::AlarmContext context;
  context.threads = 8;
  context.slices = &report;

  const core::TriagedAlarm agreeing =
      stage.triage(verdict_of(Mode::kBadFs, 0.8), {}, context);
  EXPECT_NEAR(agreeing.term_phase, 0.75, 1e-12);

  const core::TriagedAlarm disagreeing =
      stage.triage(verdict_of(Mode::kBadMa, 0.8), {}, context);
  EXPECT_NEAR(disagreeing.term_phase, 0.0, 1e-12);
  EXPECT_LT(disagreeing.priority, agreeing.priority);
}

TEST(TriageHarness, ModerateNoisePresetMeetsAcceptanceBar) {
  core::TriageConfig config = harness_config();
  config.sweep.jitters = {0.05};
  config.sweep.counter_groups = {4};
  config.sweep.drops = {0.0};
  const core::TriageReport report =
      core::evaluate_triage(trained_detector(), fitted_stage(), config);
  ASSERT_EQ(report.cells.size(), 1u);
  const core::TriageCell& cell = report.cells[0];

  // Zero false positives after triage, with at least 90% of runs still
  // getting a verdict.
  EXPECT_EQ(cell.stage2.false_alarms, 0u);
  EXPECT_LE(cell.stage2.abstention(report.runs), 0.1);
  EXPECT_GE(cell.stage2.recall(report.bad_runs), 0.9);

  // The anomaly model alone flags >= 80% of the held-out bad runs while
  // staying quiet on the good ones.
  ASSERT_GT(report.bad_runs, 0u);
  EXPECT_GE(static_cast<double>(report.flagged_bad),
            0.8 * static_cast<double>(report.bad_runs));
  EXPECT_EQ(report.flagged_good, 0u);
}

TEST(TriageHarness, TriageOnlyEverRemovesAlarms) {
  core::TriageConfig config = harness_config();
  config.sweep.jitters = {0.0, 0.4};
  config.sweep.counter_groups = {2};
  config.sweep.drops = {0.0, 0.3};
  const core::TriageReport report =
      core::evaluate_triage(trained_detector(), fitted_stage(), config);
  ASSERT_EQ(report.cells.size(), 4u);
  for (const core::TriageCell& cell : report.cells) {
    EXPECT_LE(cell.stage2.alarms, cell.stage1.alarms);
    EXPECT_LE(cell.stage2.false_alarms, cell.stage1.false_alarms);
    EXPECT_EQ(cell.stage1.alarms - cell.stage2.alarms, cell.demoted);
    EXPECT_LE(cell.demoted_true, cell.demoted);
  }
}

TEST(TriageHarness, StageOneMatchesRobustnessCellForCell) {
  // Both reports score one sweep (core::sweep_noise_grid), so stage 1 of a
  // triage sweep is the robustness sweep at the same seed, cell for cell.
  core::TriageConfig config = harness_config();
  config.sweep.jitters = {0.0, 0.3};
  config.sweep.counter_groups = {2};
  config.sweep.drops = {0.0, 0.3};
  const core::TriageReport triage =
      core::evaluate_triage(trained_detector(), fitted_stage(), config);
  const core::RobustnessReport robustness =
      core::evaluate_robustness(trained_detector(), config.sweep);
  ASSERT_EQ(triage.cells.size(), 4u);
  ASSERT_EQ(robustness.points.size(), triage.cells.size());
  bool cells_differ = false;
  for (std::size_t i = 0; i < triage.cells.size(); ++i) {
    const core::TriageStagePoint& stage1 = triage.cells[i].stage1;
    const core::RobustnessPoint& point = robustness.points[i];
    EXPECT_EQ(stage1.abstained, point.abstained) << "cell " << i;
    EXPECT_EQ(stage1.correct, point.correct) << "cell " << i;
    EXPECT_EQ(stage1.false_alarms, point.false_positives) << "cell " << i;
    const core::TriageStagePoint& first = triage.cells[0].stage1;
    if (stage1.abstained != first.abstained || stage1.correct != first.correct)
      cells_differ = true;
  }
  // If every cell scored alike, matching numbers would not show that both
  // harnesses drew the same noise.
  EXPECT_TRUE(cells_differ);
}

TEST(TriageHarness, ReportIsDeterministicAcrossJobs) {
  core::TriageConfig config = harness_config();
  config.sweep.jitters = {0.0, 0.1};
  config.sweep.counter_groups = {4};
  config.sweep.drops = {0.0, 0.3};
  core::TriageConfig serial = config;
  serial.sweep.jobs = 1;
  std::ostringstream a, b;
  core::evaluate_triage(trained_detector(), fitted_stage(), config)
      .write_json(a);
  core::evaluate_triage(trained_detector(), fitted_stage(), serial)
      .write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TriageHarness, JsonArtifactHasSchemaAndBothStages) {
  core::TriageConfig config = harness_config();
  config.sweep.jitters = {0.0, 0.05};
  config.sweep.counter_groups = {4};
  config.sweep.drops = {0.0};
  const core::TriageReport report =
      core::evaluate_triage(trained_detector(), fitted_stage(), config);
  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"fsml-triage-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"zero_positive\""), std::string::npos);
  EXPECT_NE(json.find("\"weights\""), std::string::npos);
  EXPECT_NE(json.find("\"stage1\""), std::string::npos);
  EXPECT_NE(json.find("\"stage2\""), std::string::npos);
  EXPECT_NE(json.find("\"demoted\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TriageHarness, RequiresAnAnomalyModel) {
  const core::TriageStage bare;
  EXPECT_THROW(core::evaluate_triage(trained_detector(), bare,
                                     harness_config()),
               std::logic_error);
}

}  // namespace

// Tests for graceful classifier degradation: the retry/vote/abstain loop,
// the `unknown` verdict, and the robustness sweep harness (including the
// acceptance bar: under the moderate-noise preset — 4-counter multiplexing
// plus 5% jitter — the voting detector raises zero false alarms on good
// programs while still classifying at least 90% of runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "core/detector.hpp"
#include "core/robustness.hpp"
#include "core/training.hpp"
#include "ml/dataset.hpp"
#include "pmu/counters.hpp"

namespace {

using namespace fsml;
using trainers::Mode;

/// A detector whose verdict is driven purely by feature 0:
/// <= 0.5 -> good, <= 1.5 -> bad-fs, else bad-ma.
core::FalseSharingDetector stub_detector() {
  ml::Dataset d(pmu::FeatureVector::feature_names(),
                {"good", "bad-fs", "bad-ma"});
  for (int rep = 0; rep < 4; ++rep)
    for (int y = 0; y < 3; ++y) {
      std::vector<double> x(pmu::kNumFeatures, 0.25 * rep);
      x[0] = static_cast<double>(y);
      d.add(std::move(x), y);
    }
  core::FalseSharingDetector detector;
  detector.train(d);
  return detector;
}

pmu::FeatureVector features_for(Mode mode) {
  pmu::FeatureVector fv;
  fv.set(0, static_cast<double>(core::label_of(mode)));
  return fv;
}

/// Detector trained on the reduced mini-program grid, shared across the
/// harness tests (training costs a few seconds).
const core::FalseSharingDetector& trained_detector() {
  static const core::FalseSharingDetector detector = [] {
    core::FalseSharingDetector d;
    d.train(core::collect_training_data(core::TrainingConfig::reduced()));
    return d;
  }();
  return detector;
}

core::RobustnessConfig harness_config() {
  core::RobustnessConfig config;
  config.reduced = true;
  config.jobs = 2;
  return config;
}

TEST(RobustVerdict, UnanimousVotesAreConfident) {
  const core::FalseSharingDetector detector = stub_detector();
  const core::RobustVerdict v = detector.classify_robust(
      [](std::size_t) { return features_for(Mode::kBadFs); });
  EXPECT_TRUE(v.known);
  EXPECT_EQ(v.mode, Mode::kBadFs);
  EXPECT_DOUBLE_EQ(v.confidence, 1.0);
  EXPECT_EQ(v.repeats, 5u);
  EXPECT_EQ(v.classified, 5u);
  EXPECT_EQ(v.votes[core::kBadFs], 5u);
  EXPECT_NE(v.to_string().find("bad-fs"), std::string::npos);
}

TEST(RobustVerdict, AllMeasurementsUnusableMeansUnknown) {
  const core::FalseSharingDetector detector = stub_detector();
  const core::RobustVerdict v = detector.classify_robust(
      [](std::size_t) -> std::optional<pmu::FeatureVector> {
        return std::nullopt;
      });
  EXPECT_FALSE(v.known);
  EXPECT_EQ(v.classified, 0u);
  EXPECT_NE(v.to_string().find("unknown"), std::string::npos);
}

TEST(RobustVerdict, ScatteredVotesAbstainUntilThresholdAllows) {
  const core::FalseSharingDetector detector = stub_detector();
  // 2 good, 2 bad-fs, 1 unusable: a 50% winner.
  const auto measure =
      [](std::size_t r) -> std::optional<pmu::FeatureVector> {
    if (r == 4) return std::nullopt;
    return features_for(r < 2 ? Mode::kGood : Mode::kBadFs);
  };
  const core::RobustVerdict abstain = detector.classify_robust(measure);
  EXPECT_FALSE(abstain.known);  // 0.5 < default min_confidence 0.6
  EXPECT_EQ(abstain.classified, 4u);

  core::RobustConfig lenient;
  lenient.min_confidence = 0.5;
  const core::RobustVerdict called = detector.classify_robust(measure,
                                                              lenient);
  EXPECT_TRUE(called.known);
  // Ties break toward the worse verdict, as in majority().
  EXPECT_EQ(called.mode, Mode::kBadFs);
  EXPECT_DOUBLE_EQ(called.confidence, 0.5);
}

TEST(RobustVerdict, ConfigValidates) {
  const core::FalseSharingDetector detector = stub_detector();
  const auto measure = [](std::size_t) { return features_for(Mode::kGood); };
  core::RobustConfig bad;
  bad.repeats = 0;
  EXPECT_THROW(detector.classify_robust(measure, bad), std::runtime_error);
  bad.repeats = 5;
  bad.min_confidence = std::nan("");
  EXPECT_THROW(detector.classify_robust(measure, bad), std::runtime_error);
}

TEST(RobustVerdict, ToStringGoldens) {
  // Serve records carry this text as their detail, and the pinned drill
  // streams hash it, so the format is part of the service's output.
  core::RobustVerdict v;
  v.known = true;
  v.mode = Mode::kGood;
  v.confidence = 0.8;
  v.repeats = 5;
  v.classified = 5;
  v.votes = {4, 1, 0};
  EXPECT_EQ(v.to_string(), "good (confidence 0.8, 4/5 runs)");

  v.mode = Mode::kBadFs;
  v.confidence = 2.0 / 3.0;
  v.repeats = 4;
  v.classified = 3;
  v.votes = {1, 2, 0};
  EXPECT_EQ(v.to_string(), "bad-fs (confidence 0.666667, 2/4 runs)");

  v.mode = Mode::kBadMa;
  v.confidence = 1.0;
  v.votes = {0, 0, 3};
  EXPECT_EQ(v.to_string(), "bad-ma (confidence 1, 3/4 runs)");

  v.known = false;
  EXPECT_EQ(v.to_string(), "unknown (3/4 runs classified)");
  EXPECT_EQ(core::RobustVerdict{}.to_string(),
            "unknown (0/0 runs classified)");
}

TEST(Robustness, CleanPointMatchesBaseline) {
  core::RobustnessConfig config = harness_config();
  config.jitters = {0.0};
  config.counter_groups = {0};
  config.drops = {0.0};
  const core::RobustnessReport report =
      core::evaluate_robustness(trained_detector(), config);
  ASSERT_EQ(report.points.size(), 1u);
  const core::RobustnessPoint& p = report.points[0];
  EXPECT_EQ(p.runs, report.baseline.runs);
  EXPECT_EQ(p.abstained, 0u);
  EXPECT_DOUBLE_EQ(p.coverage(), 1.0);
  // Noise fully off: every repeat sees the clean features, so the vote is
  // unanimous and the point reproduces the single-shot baseline exactly.
  EXPECT_EQ(p.correct, report.baseline.correct);
  EXPECT_EQ(p.false_positives, report.baseline.false_positives);
}

TEST(Robustness, ModerateNoisePresetMeetsAcceptanceBar) {
  core::RobustnessConfig config = harness_config();
  config.jitters = {0.05};
  config.counter_groups = {4};
  config.drops = {0.0};
  const core::RobustnessReport report =
      core::evaluate_robustness(trained_detector(), config);
  ASSERT_EQ(report.points.size(), 1u);
  const core::RobustnessPoint& p = report.points[0];
  EXPECT_EQ(p.false_positives, 0u);
  EXPECT_GE(p.coverage(), 0.9);
  EXPECT_GE(p.accuracy(), 0.9);
}

TEST(Robustness, ExtremeNoiseAbstainsRatherThanFalselyAlarming) {
  core::RobustnessConfig config = harness_config();
  config.jitters = {1.0};
  config.counter_groups = {2};
  config.drops = {0.6};
  const core::RobustnessReport report =
      core::evaluate_robustness(trained_detector(), config);
  ASSERT_EQ(report.points.size(), 1u);
  // Degradation must surface as lost coverage (abstentions), never as a
  // false alarm on a good program.
  const core::RobustnessPoint& p = report.points[0];
  EXPECT_EQ(p.false_positives, 0u);
  EXPECT_GT(p.abstained, 0u);
  // The per-label breakdown partitions the abstention count exactly.
  EXPECT_EQ(p.abstained_good + p.abstained_bad_fs + p.abstained_bad_ma,
            p.abstained);
}

TEST(Robustness, ReportIsDeterministicAcrossJobs) {
  core::RobustnessConfig config = harness_config();
  config.jitters = {0.0, 0.1};
  config.counter_groups = {4};
  config.drops = {0.0, 0.3};
  core::RobustnessConfig serial = config;
  serial.jobs = 1;
  std::ostringstream a, b;
  core::evaluate_robustness(trained_detector(), config).write_json(a);
  core::evaluate_robustness(trained_detector(), serial).write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Robustness, JsonArtifactHasSchemaAndPoints) {
  core::RobustnessConfig config = harness_config();
  config.jitters = {0.0, 0.05};
  config.counter_groups = {4};
  config.drops = {0.0};
  const core::RobustnessReport report =
      core::evaluate_robustness(trained_detector(), config);
  std::ostringstream os;
  report.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"fsml-robustness-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"abstained_good\""), std::string::npos);
  EXPECT_NE(json.find("\"abstained_bad_fs\""), std::string::npos);
  EXPECT_NE(json.find("\"abstained_bad_ma\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Robustness, ConfigRejectsBadAxes) {
  const auto invalid = [](auto mutate) {
    core::RobustnessConfig config;
    mutate(config);
    config.validate();
  };
  EXPECT_THROW(
      invalid([](core::RobustnessConfig& c) { c.jitters = {}; }),
      std::runtime_error);
  EXPECT_THROW(
      invalid([](core::RobustnessConfig& c) { c.jitters = {1.5}; }),
      std::runtime_error);
  EXPECT_THROW(
      invalid([](core::RobustnessConfig& c) { c.drops = {std::nan("")}; }),
      std::runtime_error);
  EXPECT_THROW(
      invalid([](core::RobustnessConfig& c) { c.counter_groups = {17}; }),
      std::runtime_error);
  EXPECT_THROW(
      invalid([](core::RobustnessConfig& c) { c.repeats = -1; }),
      std::runtime_error);
}

}  // namespace

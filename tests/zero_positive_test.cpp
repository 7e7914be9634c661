// Tests for the zero-positive anomaly model: good-only fitting, seeded
// threshold calibration, NaN imputation, model-file round-trips (including
// corrupt-file rejection), and bit-identical fits regardless of how many
// host threads collected the training data.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/training.hpp"
#include "core/triage.hpp"
#include "ml/zero_positive.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;

/// Synthetic "good" rows: a tight cluster around a 2D line embedded in 4D,
/// with mild deterministic wobble — low-rank structure PCA can learn.
std::vector<std::vector<double>> synthetic_good_rows(std::size_t n = 64) {
  std::vector<std::vector<double>> rows;
  util::SplitMix64 rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    const double wobble =
        static_cast<double>(rng.next() % 1000) / 1000.0 * 0.01;
    rows.push_back({t, 2.0 * t + wobble, 0.5 - t, 3.0 + wobble});
  }
  return rows;
}

std::vector<std::string> names4() { return {"a", "b", "c", "d"}; }

ml::ZeroPositiveModel fitted_model() {
  ml::ZeroPositiveModel model;
  model.fit(synthetic_good_rows(), names4());
  return model;
}

TEST(ZeroPositive, FitRejectsBadInput) {
  ml::ZeroPositiveModel model;
  EXPECT_THROW(model.fit({}, names4()), std::runtime_error);
  EXPECT_THROW(model.fit({{1.0, 2.0}}, names4()), std::runtime_error);
  EXPECT_THROW(
      model.fit({{1, 2, 3, 4}, {1, 2, 3, std::nan("")}, {1, 2, 3, 4},
                 {1, 2, 3, 4}},
                names4()),
      std::runtime_error);
  EXPECT_FALSE(model.fitted());
  // Scoring before fitting is a programming error (FSML_CHECK).
  EXPECT_THROW(model.score(std::vector<double>{1, 2, 3, 4}),
               std::logic_error);
}

TEST(ZeroPositive, GoodRowsScoreBelowThresholdOutliersAbove) {
  const ml::ZeroPositiveModel model = fitted_model();
  EXPECT_TRUE(model.fitted());
  EXPECT_GT(model.threshold(), 0.0);

  // Every training row reconstructs well.
  for (const auto& row : synthetic_good_rows())
    EXPECT_FALSE(model.anomalous(row)) << model.score(row);

  // A point far off the learned subspace reconstructs terribly.
  const std::vector<double> outlier = {5.0, -10.0, 4.0, -7.0};
  EXPECT_TRUE(model.anomalous(outlier));
  EXPECT_GT(model.score(outlier), model.threshold() * 2.0);
}

TEST(ZeroPositive, ThresholdCalibrationIsSeedDeterministic) {
  ml::ZeroPositiveModel a, b;
  a.fit(synthetic_good_rows(), names4());
  b.fit(synthetic_good_rows(), names4());
  // Same rows + the fixed split seed -> the same held-out split, the same
  // calibration errors, the exact same threshold and payload bytes.
  EXPECT_EQ(a.threshold(), b.threshold());
  std::ostringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(ZeroPositive, NanSlotsImputeTheGoodRunMean) {
  const ml::ZeroPositiveModel model = fitted_model();
  // All-NaN imputes the mean everywhere -> z-vector is all zero -> the
  // residual is exactly zero: missing data biases toward "normal".
  const std::vector<double> all_nan(4,
                                    std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(model.score(all_nan), 0.0);
  EXPECT_FALSE(model.anomalous(all_nan));
}

TEST(ZeroPositive, SaveLoadRoundTripScoresBitIdentically) {
  const ml::ZeroPositiveModel model = fitted_model();
  std::stringstream ss;
  model.save(ss);
  const ml::ZeroPositiveModel back = ml::ZeroPositiveModel::load(ss);
  EXPECT_EQ(back.num_components(), model.num_components());
  EXPECT_EQ(back.feature_names(), model.feature_names());
  EXPECT_EQ(back.threshold(), model.threshold());
  const std::vector<std::vector<double>> probes = {
      {0.5, 1.0, 0.0, 3.0}, {5.0, -10.0, 4.0, -7.0}, {0.0, 0.0, 0.0, 0.0}};
  for (const auto& probe : probes)
    EXPECT_EQ(back.score(probe), model.score(probe));
}

TEST(ZeroPositive, FileRoundTripAndCorruptFileRejected) {
  const std::string path = "zp_roundtrip_test.model";
  const ml::ZeroPositiveModel model = fitted_model();
  model.save_file(path);
  const ml::ZeroPositiveModel back = ml::ZeroPositiveModel::load_file(path);
  EXPECT_EQ(back.threshold(), model.threshold());

  // Flip one payload byte: the container CRC must catch it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(ml::ZeroPositiveModel::load_file(path), std::runtime_error);

  // Truncation is rejected too.
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 3);
  EXPECT_THROW(ml::ZeroPositiveModel::load_file(path), std::runtime_error);

  // Not-a-model-file is rejected with the magic check.
  std::ofstream(path, std::ios::binary) << "definitely not a model\n";
  EXPECT_THROW(ml::ZeroPositiveModel::load_file(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(ml::ZeroPositiveModel::load_file(path), std::runtime_error);
}

TEST(ZeroPositive, DescribeMentionsShape) {
  const ml::ZeroPositiveModel model = fitted_model();
  const std::string text = model.describe();
  EXPECT_NE(text.find("zero-positive"), std::string::npos);
  EXPECT_NE(text.find("4 features"), std::string::npos);
}

/// The good-only training bridge is bit-identical no matter how many host
/// threads collected the data: collection rows assemble in job-list order
/// and the fit's held-out split depends only on (rows, seed).
TEST(ZeroPositiveTraining, FitIsBitIdenticalAcrossCollectionJobs) {
  core::TrainingConfig serial = core::TrainingConfig::reduced();
  serial.jobs = 1;
  core::TrainingConfig parallel = serial;
  parallel.jobs = 4;

  const ml::ZeroPositiveModel a =
      core::fit_zero_positive(core::collect_training_data(serial));
  const ml::ZeroPositiveModel b =
      core::fit_zero_positive(core::collect_training_data(parallel));
  std::ostringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(a.num_features(), core::extended_feature_names().size());
}

}  // namespace

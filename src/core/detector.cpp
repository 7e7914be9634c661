#include "core/detector.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "ml/io.hpp"
#include "util/check.hpp"

namespace fsml::core {

void RobustConfig::validate() const {
  if (repeats < 1 || repeats > 1001)
    throw std::runtime_error("RobustConfig: repeats must be in 1..1001");
  if (std::isnan(min_confidence) || min_confidence < 0.0 ||
      min_confidence > 1.0)
    throw std::runtime_error(
        "RobustConfig: min_confidence must be in [0, 1]");
}

std::string RobustVerdict::to_string() const {
  // %g is the format an ostream gives a double by default.
  char text[128];
  if (known) {
    const std::string_view name = trainers::to_string(mode);
    std::snprintf(text, sizeof text, "%.*s (confidence %g, %zu/%zu runs)",
                  static_cast<int>(name.size()), name.data(), confidence,
                  votes[static_cast<std::size_t>(label_of(mode))], repeats);
  } else {
    std::snprintf(text, sizeof text, "unknown (%zu/%zu runs classified)",
                  classified, repeats);
  }
  return text;
}

namespace {

/// The one schema a detector trains and loads: the 15 normalized Westmere
/// features and the three class labels, in order. `source` names what was
/// checked; `fix` is appended to the error to say how to repair it.
void check_schema(const std::vector<std::string>& attributes,
                  const std::vector<std::string>& classes,
                  const std::string& source, const std::string& fix) {
  if (attributes == pmu::FeatureVector::feature_names() &&
      classes == class_names())
    return;
  throw std::runtime_error(
      source +
      " has a different schema than this build expects (the 15 normalized "
      "Westmere features; classes good, bad-fs, bad-ma)" +
      fix);
}

/// The label with the most votes, scanning in severity order bad-fs,
/// bad-ma, good so ties resolve to the worse verdict.
int most_severe_plurality(const std::array<std::size_t, 3>& votes) {
  int best = kGood;
  std::size_t best_count = 0;
  for (const int label : {kBadFs, kBadMa, kGood}) {
    if (votes[static_cast<std::size_t>(label)] > best_count) {
      best = label;
      best_count = votes[static_cast<std::size_t>(label)];
    }
  }
  return best;
}

}  // namespace

void FalseSharingDetector::train(const TrainingData& data) {
  train(data.to_dataset());
}

void FalseSharingDetector::train(const ml::Dataset& dataset) {
  check_schema(dataset.attribute_names(), dataset.class_names(),
               "training dataset", "");
  tree_.train(dataset);
  trained_ = true;
}

trainers::Mode FalseSharingDetector::classify(
    const pmu::FeatureVector& features) const {
  FSML_CHECK_MSG(trained_, "detector is not trained");
  return mode_of(tree_.predict(features.values()));
}

RobustVerdict FalseSharingDetector::classify_robust(
    const MeasureFn& measure, const RobustConfig& config) const {
  FSML_CHECK_MSG(trained_, "detector is not trained");
  config.validate();

  RobustVerdict out;
  out.repeats = static_cast<std::size_t>(config.repeats);

  for (std::size_t r = 0; r < out.repeats; ++r) {
    const std::optional<pmu::FeatureVector> features = measure(r);
    if (!features) continue;  // unusable measurement; retry bounded by loop
    ++out.votes[static_cast<std::size_t>(tree_.predict(features->values()))];
    ++out.classified;
  }
  if (out.classified == 0) return out;  // nothing usable: unknown

  const int best = most_severe_plurality(out.votes);
  out.confidence =
      static_cast<double>(out.votes[static_cast<std::size_t>(best)]) /
      static_cast<double>(out.classified);
  if (out.confidence >= config.min_confidence) {
    out.known = true;
    out.mode = mode_of(best);
  }
  return out;
}

trainers::Mode FalseSharingDetector::majority(
    const std::vector<trainers::Mode>& verdicts) {
  FSML_CHECK_MSG(!verdicts.empty(), "majority of zero verdicts");
  std::array<std::size_t, 3> counts{};
  for (const trainers::Mode v : verdicts)
    ++counts[static_cast<std::size_t>(label_of(v))];
  return mode_of(most_severe_plurality(counts));
}

void FalseSharingDetector::save(std::ostream& os) const {
  FSML_CHECK_MSG(trained_, "cannot save an untrained detector");
  tree_.save(os);
}

FalseSharingDetector FalseSharingDetector::load(std::istream& is) {
  FalseSharingDetector detector;
  detector.tree_ = ml::C45Tree::load(is);
  check_schema(detector.tree_.attribute_names(), detector.tree_.class_names(),
               "model", " — retrain with `fsml_analyze train`");
  detector.trained_ = true;
  return detector;
}

void FalseSharingDetector::save_file(const std::string& path) const {
  FSML_CHECK_MSG(trained_, "cannot save an untrained detector");
  // Versioned + checksummed container, written atomically: a crash mid-save
  // leaves the previous model intact, and a torn or corrupt file is
  // rejected at load time instead of silently mis-predicting.
  ml::save_model_file(tree_, path);
}

FalseSharingDetector FalseSharingDetector::load_file(const std::string& path) {
  FalseSharingDetector detector;
  detector.tree_ = ml::load_model_file(path);
  check_schema(detector.tree_.attribute_names(), detector.tree_.class_names(),
               path + ": model",
               " — retrain with `fsml_analyze train --save-model=" + path +
                   "`");
  detector.trained_ = true;
  return detector;
}

RobustVerdict classify_degraded(const FalseSharingDetector& detector,
                                const exec::RunResult& run,
                                const pmu::MeasurementModel& model,
                                const RobustConfig& config,
                                std::uint64_t measurement_base) {
  return detector.classify_robust(
      [&](std::size_t r) -> std::optional<pmu::FeatureVector> {
        const pmu::DegradedSnapshot snapshot =
            model.measure(run.aggregate, run.slices, measurement_base + r);
        if (!snapshot.usable()) return std::nullopt;
        return snapshot.to_features();
      },
      config);
}

}  // namespace fsml::core

// FalseSharingDetector: the library's primary public API.
//
//   core::TrainingData data = core::collect_or_load(cfg, "training.csv");
//   core::FalseSharingDetector detector;
//   detector.train(data);
//
//   // classify any instrumented run of an arbitrary program:
//   trainers::TrainerRun run = ...;           // or a workload proxy run
//   trainers::Mode verdict = detector.classify(run.features);
//
// The detector wraps a J48/C4.5 decision tree over the 15 normalized
// Westmere events, mirrors the paper's majority-vote aggregation across a
// program's (input, threads, optimization) cases, and persists to disk.
//
// Degraded measurement: classify() also accepts feature vectors with NaN
// (missing) slots — e.g. events lost to counter multiplexing — which the
// C4.5 tree resolves fractionally. classify_robust() goes further: it
// re-measures a bounded number of times, majority-votes the per-measurement
// verdicts, reports a confidence, and abstains with a distinct `unknown`
// verdict (RobustVerdict::known == false) when the votes are too scattered
// to trust. classify_degraded() wires that loop to a pmu::MeasurementModel
// over one simulated run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/labels.hpp"
#include "core/training.hpp"
#include "exec/machine.hpp"
#include "ml/c45.hpp"
#include "pmu/counters.hpp"
#include "pmu/noise.hpp"

namespace fsml::core {

/// Retry/vote/abstain policy for classification under degraded measurement.
struct RobustConfig {
  /// Measurements taken (bounded retry loop). Odd values avoid two-way
  /// vote ties, though severity tie-breaking resolves them deterministically
  /// either way.
  int repeats = 5;
  /// Minimum fraction of classified measurements the winning verdict must
  /// hold; below it the detector abstains (verdict `unknown`).
  double min_confidence = 0.6;

  /// Throws std::runtime_error on out-of-range values (repeats in 1..1001,
  /// min_confidence in [0, 1], NaN rejected).
  void validate() const;
};

/// Outcome of a robust classification. `known == false` is the distinct
/// `unknown` verdict: the measurements were too degraded or too scattered
/// to call, which is *not* the same as `good`.
struct RobustVerdict {
  bool known = false;
  trainers::Mode mode = trainers::Mode::kGood;  ///< valid only when known
  double confidence = 0.0;      ///< winner's share of classified repeats
  std::size_t repeats = 0;      ///< measurements attempted
  std::size_t classified = 0;   ///< measurements that yielded a verdict
  std::array<std::size_t, 3> votes{};  ///< by class index (labels.hpp)

  /// "good (confidence 0.8, 4/5 runs)" or "unknown (3/5 runs classified)".
  std::string to_string() const;
};

class FalseSharingDetector {
 public:
  /// Trains the tree on collected mini-program data. A Dataset must carry
  /// the detector's schema — the 15 feature names of
  /// pmu::FeatureVector::feature_names() and the class names of
  /// core::class_names(), in order — or std::runtime_error is thrown.
  void train(const TrainingData& data);
  void train(const ml::Dataset& dataset);

  bool trained() const { return trained_; }

  /// Classifies one program run by its normalized event counts. NaN slots
  /// (events lost to degraded measurement) are handled by the tree's
  /// fractional-instance machinery.
  trainers::Mode classify(const pmu::FeatureVector& features) const;

  /// One measurement attempt: the features of repeat `r`, or nullopt when
  /// the measurement was unusable (e.g. the instruction counter was lost).
  using MeasureFn =
      std::function<std::optional<pmu::FeatureVector>(std::size_t r)>;

  /// Bounded retry loop: measures `config.repeats` times, classifies each
  /// usable measurement, majority-votes with the same severity tie-break as
  /// majority(), and abstains (`known == false`) when no measurement was
  /// usable or the winner's share of classified votes is below
  /// `config.min_confidence`.
  RobustVerdict classify_robust(const MeasureFn& measure,
                                const RobustConfig& config = {}) const;

  /// Paper Table 5: a program's overall classification is the majority
  /// verdict over all its cases (ties break toward the worse verdict:
  /// bad-fs > bad-ma > good — a detector should not hide a fault it saw in
  /// half the cases).
  static trainers::Mode majority(const std::vector<trainers::Mode>& verdicts);

  const ml::C45Tree& model() const { return tree_; }

  /// Persistence. Both loaders reject a tree whose schema differs from the
  /// one train() requires (std::runtime_error).
  void save(std::ostream& os) const;
  static FalseSharingDetector load(std::istream& is);
  void save_file(const std::string& path) const;
  static FalseSharingDetector load_file(const std::string& path);

 private:
  ml::C45Tree tree_;
  bool trained_ = false;
};

/// Classifies one simulated run under a measurement-degradation model: each
/// repeat re-reads the run's counters through `model` (fresh multiplex
/// rotation phase, jitter and fault draws per repeat), then the verdicts are
/// voted as in classify_robust(). `measurement_base` offsets the noise
/// draws so distinct runs measured with one model stay decorrelated.
/// Deterministic in (model seed, measurement_base, config) — host thread
/// count never changes the result.
RobustVerdict classify_degraded(const FalseSharingDetector& detector,
                                const exec::RunResult& run,
                                const pmu::MeasurementModel& model,
                                const RobustConfig& config = {},
                                std::uint64_t measurement_base = 0);

}  // namespace fsml::core

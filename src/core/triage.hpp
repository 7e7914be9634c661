// TriageStage: second-stage alarm re-ranking over the detector's verdicts.
//
// The first stage (FalseSharingDetector::classify_robust) votes repeated
// measurements into a verdict; the triage stage decides how much an *alarm*
// (a known bad-fs / bad-ma verdict) should be trusted, fusing four signals
// into one priority in [0, 1]:
//
//  * tree confidence — the winning verdict's share of classified repeats;
//  * anomaly margin — the zero-positive model's reconstruction error
//    relative to its calibrated threshold (ml/zero_positive.hpp): an alarm
//    on a run that also looks nothing like any good training run is far
//    more credible than one the anomaly model considers normal;
//  * phase support — the fraction of classified time slices (core/slices)
//    whose verdict agrees with the alarm: real false sharing shows up in
//    the timeline, a voting fluke does not;
//  * run metadata — thread count and NUMA locality: contention grows with
//    parallelism, and remote-HITM-dominated traffic is the expensive kind.
//
// The priority is the weighted average of the four terms, with fixed
// weights 0.45 / 0.30 / 0.15 / 0.10 in that order.
// Alarms whose fused priority falls below `demote_below` are demoted to the
// detector's distinct `unknown` verdict — the pipeline would rather say "I
// can't call this" than page someone on a low-credibility alarm. Good and
// already-unknown verdicts are never touched; triage only ever *removes*
// alarms, so it cannot create a false positive.
//
//   core::TriageStage stage;
//   stage.set_anomaly_model(core::fit_zero_positive(training_data));
//   core::TriagedAlarm alarm = stage.triage(verdict, extended, context);
//   if (alarm.verdict.known) ...   // alarm survived, alarm.priority set
//
// evaluate_triage() re-ranks the robustness harness's noise-grid sweep
// (core::sweep_noise_grid) and emits the "fsml-triage-v1" artifact
// comparing stage-1 and stage-2 precision/recall/abstention at every noise
// grid point.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/robustness.hpp"
#include "core/slices.hpp"
#include "ml/zero_positive.hpp"

namespace fsml::core {

/// Default demotion cutoff: alarms with fused priority below it demote to
/// `unknown` (`--demote-below`).
inline constexpr double kDefaultDemoteBelow = 0.35;

/// Per-alarm side information the fusion consumes. All fields optional in
/// spirit: zeroed metadata and a null slice report fall back to neutral
/// terms (0.5) so triage degrades gracefully when context is missing.
struct AlarmContext {
  std::uint32_t threads = 1;
  double hitm_remote_ratio = 0.0;
  double dram_remote_ratio = 0.0;
  /// Phase timeline of the same run, if sliced classification ran.
  const SliceReport* slices = nullptr;
};

/// Triage outcome: the (possibly demoted) verdict plus the fused priority
/// and its component terms, kept for explainability.
struct TriagedAlarm {
  RobustVerdict verdict;
  double priority = 0.0;   ///< fused score in [0, 1]
  bool demoted = false;    ///< true: stage 1 alarmed, triage overruled it
  /// Zero-positive reconstruction error and flag; score is NaN when no
  /// anomaly model was attached.
  double anomaly_score = 0.0;
  bool anomalous = false;
  /// Individual fusion terms, each in [0, 1].
  double term_confidence = 0.0;
  double term_anomaly = 0.0;
  double term_phase = 0.0;
  double term_metadata = 0.0;

  /// "bad-fs priority 0.82 (conf 0.80, anomaly 0.91, phase 0.75, meta 0.40)"
  std::string to_string() const;
};

class TriageStage {
 public:
  /// Throws std::runtime_error unless `demote_below` is in [0, 1].
  explicit TriageStage(double demote_below = kDefaultDemoteBelow);

  /// Attaches a fitted zero-positive model; without one the anomaly term is
  /// neutral (0.5) and anomaly_score is NaN.
  void set_anomaly_model(ml::ZeroPositiveModel model);
  bool has_anomaly_model() const { return anomaly_.has_value(); }
  const ml::ZeroPositiveModel& anomaly_model() const;

  /// Re-ranks one verdict. `extended` is the run's features in
  /// extended_feature_names() order (15 normalized events + locality
  /// ratios), used by the anomaly model; an empty span skips the anomaly
  /// term. Only known, non-good verdicts can be demoted.
  TriagedAlarm triage(const RobustVerdict& verdict,
                      std::span<const double> extended,
                      const AlarmContext& context) const;

 private:
  double demote_below_;
  std::optional<ml::ZeroPositiveModel> anomaly_;
};

/// Fits the zero-positive anomaly model on the good-labelled rows of a
/// training collection over the extended feature schema.
ml::ZeroPositiveModel fit_zero_positive(const TrainingData& data);

// ---- two-stage evaluation harness ------------------------------------------

struct TriageConfig {
  /// Evaluation set and noise grid (shared with evaluate_robustness).
  RobustnessConfig sweep;
  /// Demotion cutoff of the stage the report describes, in [0, 1].
  double demote_below = kDefaultDemoteBelow;

  /// Throws std::runtime_error on an invalid sweep or cutoff.
  void validate() const;
};

/// Alarm-level scores of one pipeline stage at one grid cell. An *alarm* is
/// a known bad-fs or bad-ma verdict; `correct` additionally requires the
/// exact label match (bad-fs vs bad-ma confusion is a true alarm but not a
/// correct verdict).
struct TriageStagePoint {
  std::size_t alarms = 0;
  std::size_t true_alarms = 0;   ///< alarms on runs labelled bad
  std::size_t false_alarms = 0;  ///< alarms on runs labelled good
  std::size_t abstained = 0;
  std::size_t correct = 0;

  double precision() const {
    return alarms == 0 ? 1.0
                       : static_cast<double>(true_alarms) /
                             static_cast<double>(alarms);
  }
  double recall(std::size_t bad_runs) const {
    return bad_runs == 0 ? 1.0
                         : static_cast<double>(true_alarms) /
                               static_cast<double>(bad_runs);
  }
  double abstention(std::size_t runs) const {
    return runs == 0 ? 0.0
                     : static_cast<double>(abstained) /
                           static_cast<double>(runs);
  }
};

/// One noise grid cell scored before (stage1) and after (stage2) triage.
struct TriageCell {
  double jitter = 0.0;
  std::size_t counters = 0;
  double drop = 0.0;
  TriageStagePoint stage1;
  TriageStagePoint stage2;
  std::size_t demoted = 0;       ///< alarms triage overruled
  std::size_t demoted_true = 0;  ///< of those, alarms that were real (cost)
};

struct TriageReport {
  std::size_t runs = 0;
  std::size_t good_runs = 0;
  std::size_t bad_runs = 0;

  /// Zero-positive model scored on the clean evaluation runs.
  std::size_t flagged_bad = 0;   ///< bad runs the anomaly model flags
  std::size_t flagged_good = 0;  ///< good runs it (wrongly) flags
  double anomaly_threshold = 0.0;
  std::size_t anomaly_components = 0;

  double demote_below = 0.0;
  std::vector<TriageCell> cells;  ///< grid order: jitter, counters, drop
  int repeats = 0;
  double min_confidence = 0.0;
  std::uint64_t seed = 0;

  /// The two-stage artifact: schema "fsml-triage-v1".
  void write_json(std::ostream& os) const;
};

/// Runs the two-stage evaluation: simulate the evaluation set once, fit a
/// slice report per run, run the robustness sweep (sweep_noise_grid) as
/// stage 1, and re-rank each of its verdicts through stage 2
/// (`stage.triage`).
/// Deterministic for any `sweep.jobs` value. The stage must carry an
/// anomaly model (fit one with fit_zero_positive).
TriageReport evaluate_triage(const FalseSharingDetector& detector,
                             const TriageStage& stage,
                             const TriageConfig& config,
                             std::ostream* log = nullptr);

}  // namespace fsml::core

// Robustness evaluation harness: how gracefully does the detection
// pipeline degrade as measurement quality drops?
//
// The harness simulates an evaluation set of mini-program runs once (with
// time-slicing enabled, so counter multiplexing has real phase variation to
// lose), then sweeps a grid of noise level x counter-group size x drop
// probability. At every grid point each run is classified through
// classify_degraded() — the bounded re-measure / majority-vote / abstain
// loop — and scored against its ground-truth label. The clean single-shot
// classification of the same runs is the baseline every point is compared
// against.
//
//   core::RobustnessConfig cfg;                 // default sweep grid
//   core::RobustnessReport report =
//       core::evaluate_robustness(detector, cfg, &std::cerr);
//   report.write_json(out);                     // machine-readable artifact
//
// Both the run collection and the grid sweep fan out on the fsml::par pool;
// every model seed derives from (config.seed, grid coordinates) and every
// measurement from (run index, repeat), so any `jobs` value produces a
// bit-identical report. The triage harness (core/triage.hpp) re-ranks the
// verdicts of the same sweep (sweep_noise_grid).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/event_selection.hpp"
#include "sim/machine_config.hpp"

namespace fsml::core {

struct RobustnessConfig {
  /// Sweep axes. `counter_groups` entries are programmable-counter counts
  /// (0 = no multiplexing, 4 = Westmere).
  std::vector<double> jitters = {0.0, 0.02, 0.05, 0.10, 0.20};
  std::vector<std::size_t> counter_groups = {0, 8, 4, 2};
  std::vector<double> drops = {0.0, 0.05, 0.15};

  /// Vote policy at every grid point.
  int repeats = 5;
  double min_confidence = 0.6;

  std::uint64_t seed = 42;
  std::size_t jobs = 0;  ///< host threads; 0 = hardware concurrency

  /// Smaller evaluation set (3 programs, one thread count) for tests/CI.
  bool reduced = false;

  sim::MachineConfig machine = sim::MachineConfig::westmere_dp(12);

  /// Throws std::runtime_error on empty axes or out-of-range values.
  void validate() const;
};

/// One simulated evaluation case with its ground truth and metadata —
/// the shared input of evaluate_robustness() and the triage harness
/// (core/triage.hpp), which re-ranks the same runs' verdicts.
struct EvalRun {
  trainers::Mode label = trainers::Mode::kGood;
  std::string program;
  std::uint32_t threads = 4;
  exec::RunResult result;
  pmu::FeatureVector clean_features;
  /// NUMA-locality ratios of the clean aggregate counters.
  LocalityFeatures locality;
};

/// Simulates the evaluation set once, time-sliced every 25 000 virtual
/// cycles, on the fsml::par pool. Run seeds derive from job coordinates,
/// so the set is bit-identical for any `config.jobs` value.
std::vector<EvalRun> simulate_evaluation_runs(const RobustnessConfig& config,
                                              std::ostream* log = nullptr);

/// One noise grid cell and every evaluation run's verdict under it.
struct SweepCell {
  double jitter = 0.0;
  std::size_t counters = 0;
  double drop = 0.0;
  std::vector<RobustVerdict> verdicts;  ///< one per run, in run order
};

/// The noise-grid sweep: classifies every run through classify_degraded at
/// every grid cell (grid order: jitter, counters, drop), on the fsml::par
/// pool. evaluate_robustness scores these verdicts and evaluate_triage
/// re-ranks them. Bit-identical for any `config.jobs` value.
std::vector<SweepCell> sweep_noise_grid(const FalseSharingDetector& detector,
                                        const std::vector<EvalRun>& runs,
                                        const RobustnessConfig& config);

/// Scores of one sweep cell (or of the clean baseline).
struct RobustnessPoint {
  double jitter = 0.0;
  std::size_t counters = 0;
  double drop = 0.0;

  std::size_t runs = 0;        ///< evaluation runs scored
  std::size_t classified = 0;  ///< runs with a known verdict
  std::size_t abstained = 0;   ///< runs the detector declined to call
  /// Abstentions broken down by ground-truth label: abstaining on a good
  /// run costs only coverage, abstaining on a bad run hides a fault — the
  /// artifact separates the two so dashboards can weigh them differently.
  std::size_t abstained_good = 0;
  std::size_t abstained_bad_fs = 0;
  std::size_t abstained_bad_ma = 0;
  std::size_t correct = 0;     ///< known verdicts matching the label
  /// Runs labelled good whose *known* verdict was bad-fs or bad-ma. An
  /// abstention on a good run is degraded coverage, never a false alarm.
  std::size_t false_positives = 0;

  /// Accuracy over the runs the detector was willing to call.
  double accuracy() const {
    return classified == 0 ? 0.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(classified);
  }
  /// Fraction of runs that got a verdict at all.
  double coverage() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(classified) /
                           static_cast<double>(runs);
  }
};

struct RobustnessReport {
  RobustnessPoint baseline;  ///< clean single-shot classification
  std::vector<RobustnessPoint> points;  ///< grid order: jitter, counters, drop
  int repeats = 0;
  double min_confidence = 0.0;
  std::uint64_t seed = 0;

  /// The accuracy-vs-noise artifact: schema "fsml-robustness-v1".
  void write_json(std::ostream& os) const;
};

/// Runs the full sweep. Progress lines go to `log` if non-null.
RobustnessReport evaluate_robustness(const FalseSharingDetector& detector,
                                     const RobustnessConfig& config,
                                     std::ostream* log = nullptr);

}  // namespace fsml::core

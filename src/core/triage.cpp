#include "core/triage.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"
#include "util/time_format.hpp"

namespace fsml::core {

namespace {

using trainers::Mode;

/// Fusion weights of the four credibility terms; the priority is their
/// weighted average.
constexpr double kWeightConfidence = 0.45;
constexpr double kWeightAnomaly = 0.30;
constexpr double kWeightPhase = 0.15;
constexpr double kWeightMetadata = 0.10;

void check_demote_below(double demote_below) {
  if (std::isnan(demote_below) || demote_below < 0.0 || demote_below > 1.0)
    throw std::runtime_error("triage: demote_below must be in [0, 1], got " +
                             std::to_string(demote_below));
}

/// The run's clean features over the extended schema.
std::vector<double> extended_of(const EvalRun& run) {
  std::vector<double> x(run.clean_features.values().begin(),
                        run.clean_features.values().end());
  x.push_back(run.locality.hitm_remote_ratio);
  x.push_back(run.locality.dram_remote_ratio);
  return x;
}

void score_stage(TriageStagePoint& point, Mode label,
                 const RobustVerdict& verdict) {
  if (!verdict.known) {
    ++point.abstained;
    return;
  }
  if (verdict.mode == label) ++point.correct;
  if (verdict.mode != Mode::kGood) {
    ++point.alarms;
    if (label == Mode::kGood)
      ++point.false_alarms;
    else
      ++point.true_alarms;
  }
}

void json_stage(std::ostream& os, const TriageStagePoint& p, std::size_t runs,
                std::size_t bad_runs) {
  os << "{\"alarms\": " << p.alarms << ", \"true_alarms\": " << p.true_alarms
     << ", \"false_alarms\": " << p.false_alarms
     << ", \"abstained\": " << p.abstained << ", \"correct\": " << p.correct
     << ", \"precision\": " << p.precision()
     << ", \"recall\": " << p.recall(bad_runs)
     << ", \"abstention\": " << p.abstention(runs) << '}';
}

}  // namespace

void TriageConfig::validate() const {
  sweep.validate();
  check_demote_below(demote_below);
}

std::string TriagedAlarm::to_string() const {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed;
  if (demoted)
    os << "demoted to unknown";
  else if (!verdict.known)
    os << "unknown";
  else
    os << trainers::to_string(verdict.mode);
  os << " (priority " << priority << ": conf " << term_confidence
     << ", anomaly " << term_anomaly << ", phase " << term_phase << ", meta "
     << term_metadata << ')';
  return os.str();
}

TriageStage::TriageStage(double demote_below) : demote_below_(demote_below) {
  check_demote_below(demote_below_);
}

void TriageStage::set_anomaly_model(ml::ZeroPositiveModel model) {
  FSML_CHECK_MSG(model.fitted(), "anomaly model is not fitted");
  anomaly_ = std::move(model);
}

const ml::ZeroPositiveModel& TriageStage::anomaly_model() const {
  FSML_CHECK_MSG(anomaly_.has_value(), "no anomaly model attached");
  return *anomaly_;
}

TriagedAlarm TriageStage::triage(const RobustVerdict& verdict,
                                 std::span<const double> extended,
                                 const AlarmContext& context) const {
  TriagedAlarm out;
  out.verdict = verdict;
  out.anomaly_score = std::numeric_limits<double>::quiet_NaN();

  out.term_confidence = verdict.known ? verdict.confidence : 0.0;

  // Anomaly margin relative to the calibrated threshold, squashed to
  // (0, 1) with 0.5 exactly at the threshold; neutral when the model or
  // the extended features are unavailable.
  out.term_anomaly = 0.5;
  if (anomaly_.has_value() && extended.size() == anomaly_->num_features()) {
    out.anomaly_score = anomaly_->score(extended);
    out.anomalous = out.anomaly_score > anomaly_->threshold();
    const double margin = out.anomaly_score / anomaly_->threshold();
    out.term_anomaly = margin / (margin + 1.0);
  }

  // Fraction of classified slices agreeing with the verdict; neutral
  // without a timeline or a known verdict to agree with.
  out.term_phase = 0.5;
  if (context.slices != nullptr && verdict.known)
    out.term_phase = context.slices->fraction(verdict.mode);

  // More threads mean more opportunity for genuine contention; remote
  // traffic is the expensive kind worth paging someone over.
  const double thread_term =
      static_cast<double>(std::min<std::uint32_t>(context.threads, 16)) / 16.0;
  out.term_metadata = 0.5 * thread_term + 0.25 * context.hitm_remote_ratio +
                      0.25 * context.dram_remote_ratio;

  constexpr double kWeightSum =
      kWeightConfidence + kWeightAnomaly + kWeightPhase + kWeightMetadata;
  out.priority = (kWeightConfidence * out.term_confidence +
                  kWeightAnomaly * out.term_anomaly +
                  kWeightPhase * out.term_phase +
                  kWeightMetadata * out.term_metadata) /
                 kWeightSum;

  const bool is_alarm = verdict.known && verdict.mode != Mode::kGood;
  if (is_alarm && out.priority < demote_below_) {
    out.demoted = true;
    out.verdict.known = false;
  }
  return out;
}

ml::ZeroPositiveModel fit_zero_positive(const TrainingData& data) {
  ml::ZeroPositiveModel model;
  model.fit(data.good_extended_rows(), extended_feature_names());
  return model;
}

void TriageReport::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"fsml-triage-v1\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"repeats\": " << repeats << ",\n";
  os << "  \"min_confidence\": " << min_confidence << ",\n";
  os << "  \"runs\": " << runs << ",\n";
  os << "  \"good_runs\": " << good_runs << ",\n";
  os << "  \"bad_runs\": " << bad_runs << ",\n";
  os << "  \"zero_positive\": {\"threshold\": " << anomaly_threshold
     << ", \"components\": " << anomaly_components
     << ", \"flagged_bad\": " << flagged_bad
     << ", \"flagged_good\": " << flagged_good << "},\n";
  os << "  \"weights\": {\"tree_confidence\": " << kWeightConfidence
     << ", \"anomaly\": " << kWeightAnomaly << ", \"phase\": " << kWeightPhase
     << ", \"metadata\": " << kWeightMetadata
     << ", \"demote_below\": " << demote_below << "},\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TriageCell& c = cells[i];
    os << (i == 0 ? "\n    " : ",\n    ");
    os << "{\"jitter\": " << c.jitter << ", \"counters\": " << c.counters
       << ", \"drop\": " << c.drop << ", \"stage1\": ";
    json_stage(os, c.stage1, runs, bad_runs);
    os << ", \"stage2\": ";
    json_stage(os, c.stage2, runs, bad_runs);
    os << ", \"demoted\": " << c.demoted
       << ", \"demoted_true\": " << c.demoted_true << '}';
  }
  os << "\n  ]\n}\n";
}

TriageReport evaluate_triage(const FalseSharingDetector& detector,
                             const TriageStage& stage,
                             const TriageConfig& config, std::ostream* log) {
  FSML_CHECK_MSG(detector.trained(), "detector is not trained");
  FSML_CHECK_MSG(stage.has_anomaly_model(),
                 "triage stage has no anomaly model; fit one with "
                 "fit_zero_positive()");
  config.validate();
  const auto start = std::chrono::steady_clock::now();
  const RobustnessConfig& sweep = config.sweep;

  par::ThreadPool pool(par::pool_workers(sweep.jobs));

  // Simulate the evaluation set once; every grid cell re-measures it.
  const std::vector<EvalRun> runs = simulate_evaluation_runs(sweep, log);

  // Per-run context shared by every cell: clean extended features and the
  // phase timeline (both from the pristine measurement — triage context
  // should not inherit the very noise it is meant to discount).
  std::vector<std::vector<double>> extended;
  extended.reserve(runs.size());
  for (const EvalRun& run : runs) extended.push_back(extended_of(run));
  const std::vector<SliceReport> slice_reports = par::parallel_transform(
      pool, runs,
      [&](const EvalRun& run) { return analyze_slices(detector, run.result); });
  std::vector<AlarmContext> contexts(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    contexts[r].threads = runs[r].threads;
    contexts[r].hitm_remote_ratio = runs[r].locality.hitm_remote_ratio;
    contexts[r].dram_remote_ratio = runs[r].locality.dram_remote_ratio;
    contexts[r].slices = &slice_reports[r];
  }

  TriageReport report;
  report.repeats = sweep.repeats;
  report.min_confidence = sweep.min_confidence;
  report.seed = sweep.seed;
  report.demote_below = config.demote_below;
  report.runs = runs.size();

  const ml::ZeroPositiveModel& anomaly = stage.anomaly_model();
  report.anomaly_threshold = anomaly.threshold();
  report.anomaly_components = anomaly.num_components();
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const bool flagged = extended[r].size() == anomaly.num_features() &&
                         anomaly.anomalous(extended[r]);
    if (runs[r].label == Mode::kGood) {
      ++report.good_runs;
      if (flagged) ++report.flagged_good;
    } else {
      ++report.bad_runs;
      if (flagged) ++report.flagged_bad;
    }
  }

  // Stage 1 is the robustness sweep itself; stage 2 re-ranks its verdicts.
  for (const SweepCell& cell : sweep_noise_grid(detector, runs, sweep)) {
    TriageCell out;
    out.jitter = cell.jitter;
    out.counters = cell.counters;
    out.drop = cell.drop;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      score_stage(out.stage1, runs[r].label, cell.verdicts[r]);
      const TriagedAlarm alarm =
          stage.triage(cell.verdicts[r], extended[r], contexts[r]);
      score_stage(out.stage2, runs[r].label, alarm.verdict);
      if (alarm.demoted) {
        ++out.demoted;
        if (runs[r].label != Mode::kGood) ++out.demoted_true;
      }
    }
    report.cells.push_back(out);
  }

  if (log) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    *log << "triage: swept " << report.cells.size() << " grid cells x "
         << runs.size() << " runs through both stages in "
         << util::auto_time(elapsed.count()) << "\n";
  }
  return report;
}

}  // namespace fsml::core

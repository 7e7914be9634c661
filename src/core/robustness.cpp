#include "core/robustness.hpp"

#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "pmu/noise.hpp"
#include "trainers/trainer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/time_format.hpp"

namespace fsml::core {

namespace {

using trainers::Mode;

/// Virtual-time slice for the evaluation runs: slicing gives the multiplex
/// emulation real phase structure to lose.
constexpr sim::Cycles kSliceCycles = 25000;

void config_error(const std::string& what) {
  throw std::runtime_error("RobustnessConfig: " + what);
}

/// Coordinates of one evaluation case (EvalRun is the simulated outcome).
struct EvalJob {
  const trainers::MiniProgram* program = nullptr;
  Mode label = Mode::kGood;
  trainers::AccessPattern pattern = trainers::AccessPattern::kLinear;
  std::uint32_t threads = 4;
  std::uint64_t size = 0;
};

/// Evaluation-run seed from job coordinates (FNV-1a + SplitMix), so the
/// sweep is reproducible regardless of host scheduling — the same recipe
/// the training collector uses.
std::uint64_t eval_seed(std::uint64_t base, const EvalJob& job) {
  std::uint64_t h = 1469598103934665603ULL ^ base;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const char c : std::string(job.program->name()))
    mix(static_cast<std::uint64_t>(c));
  mix(static_cast<std::uint64_t>(job.label));
  mix(static_cast<std::uint64_t>(job.pattern));
  mix(job.threads);
  mix(job.size);
  return util::SplitMix64(h).next();
}

std::vector<EvalJob> enumerate_eval_jobs(const RobustnessConfig& config) {
  const auto& programs = trainers::multithreaded_set();
  const std::size_t num_programs =
      config.reduced ? std::min<std::size_t>(3, programs.size())
                     : programs.size();
  const std::vector<std::uint32_t> threads =
      config.reduced ? std::vector<std::uint32_t>{4}
                     : std::vector<std::uint32_t>{4, 8};

  std::vector<EvalJob> jobs;
  for (std::size_t p = 0; p < num_programs; ++p) {
    const trainers::MiniProgram* program = programs[p];
    const std::uint64_t size = program->default_sizes().front();
    for (const std::uint32_t t : threads) {
      jobs.push_back({program, Mode::kGood,
                      trainers::AccessPattern::kLinear, t, size});
      jobs.push_back({program, Mode::kBadFs,
                      trainers::AccessPattern::kLinear, t, size});
      if (program->supports_bad_ma())
        jobs.push_back({program, Mode::kBadMa,
                        trainers::AccessPattern::kStrided, t, size});
    }
  }
  return jobs;
}

EvalRun run_eval_job(const EvalJob& job, const RobustnessConfig& config) {
  trainers::TrainerParams params;
  params.mode = job.label;
  params.threads = job.threads;
  params.size = job.size;
  params.pattern = job.pattern;
  params.seed = eval_seed(config.seed, job);

  sim::MachineConfig machine_config = config.machine;
  machine_config.num_cores = params.threads;
  exec::Machine machine(machine_config, params.seed);
  machine.enable_slicing(kSliceCycles);
  job.program->build(machine, params);

  EvalRun run;
  run.label = job.label;
  run.program = std::string(job.program->name());
  run.threads = job.threads;
  run.result = machine.run();
  run.clean_features = pmu::FeatureVector::normalize(
      pmu::CounterSnapshot::from_raw(run.result.aggregate));
  run.locality = derived_locality(run.result.aggregate);
  return run;
}

void score(RobustnessPoint& point, Mode label, bool known, Mode mode) {
  ++point.runs;
  if (!known) {
    ++point.abstained;
    if (label == Mode::kGood)
      ++point.abstained_good;
    else if (label == Mode::kBadFs)
      ++point.abstained_bad_fs;
    else
      ++point.abstained_bad_ma;
    return;
  }
  ++point.classified;
  if (mode == label) ++point.correct;
  if (label == Mode::kGood && mode != Mode::kGood) ++point.false_positives;
}

/// Noise-model seed of sweep cell `point_index` (grid order: jitter,
/// counters, drop).
std::uint64_t point_seed(std::uint64_t base, std::size_t point_index) {
  util::SplitMix64 a(base);
  util::SplitMix64 b(0xd1b54a32d192ed03ULL * (point_index + 1));
  return a.next() ^ b.next();
}

void json_point(std::ostream& os, const RobustnessPoint& p) {
  os << "{\"jitter\": " << p.jitter << ", \"counters\": " << p.counters
     << ", \"drop\": " << p.drop << ", \"runs\": " << p.runs
     << ", \"classified\": " << p.classified
     << ", \"abstained\": " << p.abstained
     << ", \"abstained_good\": " << p.abstained_good
     << ", \"abstained_bad_fs\": " << p.abstained_bad_fs
     << ", \"abstained_bad_ma\": " << p.abstained_bad_ma
     << ", \"correct\": " << p.correct
     << ", \"false_positives\": " << p.false_positives
     << ", \"accuracy\": " << p.accuracy()
     << ", \"coverage\": " << p.coverage() << '}';
}

}  // namespace

void RobustnessConfig::validate() const {
  if (jitters.empty() || counter_groups.empty() || drops.empty())
    config_error("every sweep axis needs at least one value");
  for (const double j : jitters)
    if (std::isnan(j) || j < 0.0 || j > 1.0)
      config_error("jitter values must be in [0, 1]");
  for (const std::size_t c : counter_groups)
    if (c > pmu::kNumWestmereEvents)
      config_error("counter-group sizes must be 0 (unlimited) .. 16");
  for (const double d : drops)
    if (std::isnan(d) || d < 0.0 || d > 1.0)
      config_error("drop probabilities must be in [0, 1]");
  RobustConfig vote;
  vote.repeats = repeats;
  vote.min_confidence = min_confidence;
  vote.validate();
}

std::vector<EvalRun> simulate_evaluation_runs(const RobustnessConfig& config,
                                              std::ostream* log) {
  const auto start = std::chrono::steady_clock::now();
  par::ThreadPool pool(par::pool_workers(config.jobs));

  const std::vector<EvalJob> jobs = enumerate_eval_jobs(config);
  std::vector<EvalRun> runs = par::parallel_transform(
      pool, jobs,
      [&](const EvalJob& job) { return run_eval_job(job, config); });
  if (log) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    *log << "robustness: simulated " << runs.size()
         << " evaluation runs in " << util::auto_time(elapsed.count())
         << "\n";
  }
  return runs;
}

void RobustnessReport::write_json(std::ostream& os) const {
  std::size_t runs = baseline.runs;
  os << "{\n  \"schema\": \"fsml-robustness-v1\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"repeats\": " << repeats << ",\n";
  os << "  \"min_confidence\": " << min_confidence << ",\n";
  os << "  \"runs\": " << runs << ",\n";
  os << "  \"baseline\": ";
  json_point(os, baseline);
  os << ",\n  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    json_point(os, points[i]);
  }
  os << "\n  ]\n}\n";
}

std::vector<SweepCell> sweep_noise_grid(const FalseSharingDetector& detector,
                                        const std::vector<EvalRun>& runs,
                                        const RobustnessConfig& config) {
  par::ThreadPool pool(par::pool_workers(config.jobs));

  RobustConfig vote;
  vote.repeats = config.repeats;
  vote.min_confidence = config.min_confidence;

  std::vector<SweepCell> grid;
  for (const double jitter : config.jitters)
    for (const std::size_t counters : config.counter_groups)
      for (const double drop : config.drops)
        grid.push_back({jitter, counters, drop, {}});

  par::parallel_for(pool, grid.size(), [&](std::size_t index) {
    SweepCell& cell = grid[index];
    pmu::NoiseConfig noise;
    noise.jitter = cell.jitter;
    noise.counters = cell.counters;
    noise.drop_probability = cell.drop;
    noise.seed = point_seed(config.seed, index);
    const pmu::MeasurementModel model(noise);
    cell.verdicts.reserve(runs.size());
    for (std::size_t r = 0; r < runs.size(); ++r)
      cell.verdicts.push_back(classify_degraded(
          detector, runs[r].result, model, vote,
          r * static_cast<std::uint64_t>(config.repeats)));
  });
  return grid;
}

RobustnessReport evaluate_robustness(const FalseSharingDetector& detector,
                                     const RobustnessConfig& config,
                                     std::ostream* log) {
  FSML_CHECK_MSG(detector.trained(), "detector is not trained");
  config.validate();
  const auto start = std::chrono::steady_clock::now();

  // Simulate the evaluation runs once; every grid point re-measures these.
  const std::vector<EvalRun> runs = simulate_evaluation_runs(config, log);

  RobustnessReport report;
  report.repeats = config.repeats;
  report.min_confidence = config.min_confidence;
  report.seed = config.seed;

  // Clean single-shot baseline: what the paper's pipeline reports when the
  // measurement is pristine.
  for (const EvalRun& run : runs)
    score(report.baseline, run.label, true,
          detector.classify(run.clean_features));

  for (const SweepCell& cell : sweep_noise_grid(detector, runs, config)) {
    RobustnessPoint point;
    point.jitter = cell.jitter;
    point.counters = cell.counters;
    point.drop = cell.drop;
    for (std::size_t r = 0; r < runs.size(); ++r)
      score(point, runs[r].label, cell.verdicts[r].known,
            cell.verdicts[r].mode);
    report.points.push_back(point);
  }

  if (log) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    *log << "robustness: swept " << report.points.size() << " grid points ("
         << config.jitters.size() << " jitter x "
         << config.counter_groups.size() << " counters x "
         << config.drops.size() << " drop) in "
         << util::auto_time(elapsed.count()) << "\n";
  }
  return report;
}

}  // namespace fsml::core

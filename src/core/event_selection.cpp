#include "core/event_selection.hpp"

#include <algorithm>
#include <cmath>

#include "pmu/counters.hpp"
#include "pmu/events.hpp"
#include "trainers/trainer.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace fsml::core {

namespace {

using trainers::MiniProgram;
using trainers::Mode;
using trainers::TrainerParams;

/// "for a majority of mini-programs": an event is selected when it passes
/// more than this fraction of them.
constexpr double kMajorityFraction = 0.5;
/// Normalized counts below this are treated as zero/noise.
constexpr double kNoiseFloor = 1e-7;

/// Normalized candidate-event counts of one run.
std::vector<double> run_and_normalize(const MiniProgram& program,
                                      const TrainerParams& params,
                                      const sim::MachineConfig& machine,
                                      const std::vector<sim::RawEvent>& events) {
  const trainers::TrainerRun run =
      trainers::run_trainer(program, params, machine);
  return pmu::normalize_raw(run.raw, events);
}

/// max(r, 1/r) with care for (near-)zero counts: a signal appearing from
/// nothing is an infinite ratio; two silent counters are ratio 1.
double symmetric_ratio(double good, double bad) {
  const bool good_zero = good < kNoiseFloor;
  const bool bad_zero = bad < kNoiseFloor;
  if (good_zero && bad_zero) return 1.0;
  if (good_zero || bad_zero) return std::numeric_limits<double>::infinity();
  return std::max(good / bad, bad / good);
}

struct StepResult {
  std::vector<sim::RawEvent> selected;
  std::vector<EventStat> stats;
};

/// One selection step: for each program, compare good vs `bad_mode` across
/// thread counts; an event passes a program if its median symmetric ratio
/// is at least the threshold; it is selected if it passes a majority of
/// programs.
StepResult selection_step(const EventSelectionConfig& config,
                          const std::vector<const MiniProgram*>& programs,
                          Mode bad_mode,
                          const std::vector<sim::RawEvent>& candidates) {
  StepResult result;
  // ratios[program][event] = median over thread counts
  std::vector<std::vector<double>> ratios;

  for (const MiniProgram* program : programs) {
    std::vector<std::vector<double>> per_thread_ratios(candidates.size());
    const std::vector<std::uint32_t> threads =
        program->multithreaded() ? config.thread_counts
                                 : std::vector<std::uint32_t>{1};
    // Middle problem size: big enough to be out of the noise, small enough
    // to keep the search fast.
    const auto sizes = program->default_sizes();
    const std::uint64_t size = sizes[sizes.size() / 2];

    for (const std::uint32_t t : threads) {
      TrainerParams params;
      params.threads = t;
      params.size = size;
      params.seed = config.seed + t;
      params.mode = Mode::kGood;
      const auto good = run_and_normalize(*program, params, config.machine,
                                          candidates);
      params.mode = bad_mode;
      const auto bad = run_and_normalize(*program, params, config.machine,
                                         candidates);
      for (std::size_t e = 0; e < candidates.size(); ++e)
        per_thread_ratios[e].push_back(symmetric_ratio(good[e], bad[e]));
    }

    std::vector<double> medians(candidates.size());
    for (std::size_t e = 0; e < candidates.size(); ++e) {
      auto finite = per_thread_ratios[e];
      // Median with infinities: sort handles them (inf sorts last).
      std::sort(finite.begin(), finite.end());
      medians[e] = finite[finite.size() / 2];
    }
    ratios.push_back(std::move(medians));
  }

  for (std::size_t e = 0; e < candidates.size(); ++e) {
    EventStat stat;
    stat.event = candidates[e];
    stat.programs_total = programs.size();
    std::vector<double> per_program;
    for (const auto& r : ratios) {
      per_program.push_back(r[e]);
      if (r[e] >= config.ratio_threshold) ++stat.programs_passed;
    }
    std::sort(per_program.begin(), per_program.end());
    stat.median_ratio = per_program[per_program.size() / 2];
    result.stats.push_back(stat);
    if (static_cast<double>(stat.programs_passed) >
        kMajorityFraction * static_cast<double>(stat.programs_total))
      result.selected.push_back(candidates[e]);
  }
  return result;
}

}  // namespace

EventSelectionResult select_events(const EventSelectionConfig& config) {
  FSML_CHECK(config.ratio_threshold > 1.0);
  const std::vector<sim::RawEvent> candidates = pmu::candidate_events();

  EventSelectionResult result;

  // Step 1: good vs bad-fs over the multi-threaded set.
  const auto fs_step = selection_step(config, trainers::multithreaded_set(),
                                      Mode::kBadFs, candidates);
  result.fs_discriminators = fs_step.selected;
  result.fs_stats = fs_step.stats;

  // Step 2: good vs bad-ma over programs with a bad-ma variant (including
  // the sequential set), restricted to events not already selected.
  std::vector<sim::RawEvent> remaining;
  for (const sim::RawEvent e : candidates)
    if (std::find(result.fs_discriminators.begin(),
                  result.fs_discriminators.end(),
                  e) == result.fs_discriminators.end())
      remaining.push_back(e);

  std::vector<const MiniProgram*> ma_programs;
  for (const MiniProgram* p : trainers::all_programs())
    if (p->supports_bad_ma()) ma_programs.push_back(p);

  const auto ma_step =
      selection_step(config, ma_programs, Mode::kBadMa, remaining);
  result.ma_discriminators = ma_step.selected;
  result.ma_stats = ma_step.stats;

  result.selected = result.fs_discriminators;
  result.selected.insert(result.selected.end(),
                         result.ma_discriminators.begin(),
                         result.ma_discriminators.end());
  return result;
}

LocalityFeatures derived_locality(const sim::RawCounters& raw) {
  const auto ratio = [](std::uint64_t remote, std::uint64_t local) {
    const std::uint64_t total = local + remote;
    return total == 0 ? 0.0
                      : static_cast<double>(remote) /
                            static_cast<double>(total);
  };
  LocalityFeatures out;
  out.hitm_remote_ratio =
      ratio(raw.get(sim::RawEvent::kHitmTransfersRemote),
            raw.get(sim::RawEvent::kHitmTransfersLocal));
  out.dram_remote_ratio = ratio(raw.get(sim::RawEvent::kDramReadsRemote),
                                raw.get(sim::RawEvent::kDramReadsLocal));
  return out;
}

std::vector<std::string> extended_feature_names() {
  std::vector<std::string> names = pmu::FeatureVector::feature_names();
  names.push_back("hitm_remote_ratio");
  names.push_back("dram_remote_ratio");
  return names;
}

}  // namespace fsml::core

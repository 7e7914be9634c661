// Robustness table (not from the paper): accuracy degradation of the
// detection pipeline as PMU measurement quality drops.
//
// Sweeps jitter level x programmable-counter count x event-drop probability
// over the mini-program evaluation set and prints coverage / accuracy /
// false positives per grid point, next to the clean single-shot baseline.
// The same data is written as a machine-readable JSON artifact
// (schema fsml-robustness-v1) for plotting accuracy-vs-noise curves.
//
//   table_robustness [--noise=0,0.05,0.2] [--counters=0,8,4,2]
//                    [--drop=0,0.05,0.15] [--repeats=5] [--confidence=0.6]
//                    [--reduced] [--out=robustness.json]
//                    [--cache=...] [--seed=N] [--jobs=N]
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "core/robustness.hpp"
#include "util/atomic_file.hpp"
#include "pmu/events.hpp"

using namespace fsml;

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);

    core::RobustnessConfig config;
    config.jitters = cli.get_double_list("noise", config.jitters, 0.0, 1.0);
    const std::vector<std::int64_t> counters = cli.get_int_list(
        "counters", {0, 8, 4, 2}, 0,
        static_cast<std::int64_t>(pmu::kNumWestmereEvents));
    config.counter_groups.assign(counters.begin(), counters.end());
    config.drops = cli.get_double_list("drop", config.drops, 0.0, 1.0);
    config.repeats = static_cast<int>(cli.get_int_in("repeats", 5, 1, 1001));
    config.min_confidence = cli.get_double_in("confidence", 0.6, 0.0, 1.0);
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    config.jobs = par::cli_jobs(cli);
    config.reduced = cli.get_bool("reduced", false);

    const core::FalseSharingDetector detector =
        bench::trained_detector(bench::training_data(cli));
    const core::RobustnessReport report =
        core::evaluate_robustness(detector, config, &std::cerr);

    std::printf(
        "Robustness under emulated PMU faults (repeats=%d, confidence>=%.2f)\n"
        "clean baseline: %zu/%zu runs correct\n\n",
        report.repeats, report.min_confidence, report.baseline.correct,
        report.baseline.runs);

    util::Table table({"noise", "counters", "drop", "classified", "abstained",
                       "coverage", "accuracy", "false-pos"});
    for (const core::RobustnessPoint& p : report.points) {
      char noise[16], drop[16], coverage[16], accuracy[16];
      std::snprintf(noise, sizeof noise, "%.2f", p.jitter);
      std::snprintf(drop, sizeof drop, "%.2f", p.drop);
      std::snprintf(coverage, sizeof coverage, "%.2f", p.coverage());
      std::snprintf(accuracy, sizeof accuracy, "%.2f", p.accuracy());
      table.add_row({noise,
                     p.counters == 0 ? "all" : std::to_string(p.counters),
                     drop, std::to_string(p.classified),
                     std::to_string(p.abstained), coverage, accuracy,
                     std::to_string(p.false_positives)});
    }
    table.render(std::cout);

    const std::string out = cli.get("out", "robustness.json");
    util::AtomicFile artifact(out);  // never leaves a torn JSON behind
    report.write_json(artifact.stream());
    artifact.commit();
    std::printf("\nartifact -> %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

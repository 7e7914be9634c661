// Two-stage triage table (not from the paper): what the second-stage alarm
// re-ranking buys on top of the vote-and-abstain pipeline.
//
// Fits the zero-positive anomaly model on the good training rows, then
// sweeps the robustness noise grid classifying every evaluation run through
// stage 1 (bounded re-measure + majority vote) and stage 2 (triage fusion:
// tree confidence + anomaly margin + phase timeline + run metadata). Prints
// false positives before/after triage, demotions, and stage-2
// precision/recall per grid cell; the same data is written as the
// machine-readable "fsml-triage-v1" JSON artifact.
//
//   table_triage [--noise=0,0.05,0.2] [--counters=0,8,4,2]
//                [--drop=0,0.05,0.15] [--repeats=5] [--confidence=0.6]
//                [--demote-below=0.35] [--reduced] [--out=triage.json]
//                [--cache=...] [--seed=N] [--jobs=N]
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "core/triage.hpp"
#include "pmu/events.hpp"
#include "util/atomic_file.hpp"

using namespace fsml;

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);

    core::TriageConfig config;
    config.sweep.jitters =
        cli.get_double_list("noise", config.sweep.jitters, 0.0, 1.0);
    const std::vector<std::int64_t> counters = cli.get_int_list(
        "counters", {0, 8, 4, 2}, 0,
        static_cast<std::int64_t>(pmu::kNumWestmereEvents));
    config.sweep.counter_groups.assign(counters.begin(), counters.end());
    config.sweep.drops =
        cli.get_double_list("drop", config.sweep.drops, 0.0, 1.0);
    config.sweep.repeats =
        static_cast<int>(cli.get_int_in("repeats", 5, 1, 1001));
    config.sweep.min_confidence =
        cli.get_double_in("confidence", 0.6, 0.0, 1.0);
    config.sweep.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    config.sweep.jobs = par::cli_jobs(cli);
    config.sweep.reduced = cli.get_bool("reduced", false);
    config.demote_below = cli.get_double_in("demote-below",
                                            config.demote_below, 0.0, 1.0);

    const core::TrainingData data = bench::training_data(cli);
    const core::FalseSharingDetector detector = bench::trained_detector(data);
    core::TriageStage stage(config.demote_below);
    stage.set_anomaly_model(core::fit_zero_positive(data));

    const core::TriageReport report =
        core::evaluate_triage(detector, stage, config, &std::cerr);

    std::printf(
        "Two-stage triage under emulated PMU faults (repeats=%d, "
        "confidence>=%.2f, demote<%.2f)\n"
        "zero-positive (%s): flagged %zu/%zu bad runs, %zu/%zu good runs\n\n",
        report.repeats, report.min_confidence, report.demote_below,
        stage.anomaly_model().describe().c_str(), report.flagged_bad,
        report.bad_runs, report.flagged_good, report.good_runs);

    util::Table table({"noise", "counters", "drop", "fp s1", "fp s2",
                       "demoted", "of-them-real", "precision", "recall",
                       "abstain"});
    for (const core::TriageCell& c : report.cells) {
      char noise[16], drop[16], precision[16], recall[16], abstain[16];
      std::snprintf(noise, sizeof noise, "%.2f", c.jitter);
      std::snprintf(drop, sizeof drop, "%.2f", c.drop);
      std::snprintf(precision, sizeof precision, "%.2f",
                    c.stage2.precision());
      std::snprintf(recall, sizeof recall, "%.2f",
                    c.stage2.recall(report.bad_runs));
      std::snprintf(abstain, sizeof abstain, "%.2f",
                    c.stage2.abstention(report.runs));
      table.add_row({noise,
                     c.counters == 0 ? "all" : std::to_string(c.counters),
                     drop, std::to_string(c.stage1.false_alarms),
                     std::to_string(c.stage2.false_alarms),
                     std::to_string(c.demoted),
                     std::to_string(c.demoted_true), precision, recall,
                     abstain});
    }
    table.render(std::cout);

    const std::string out = cli.get("out", "triage.json");
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

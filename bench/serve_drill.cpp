// Chaos drills for the streaming detection service (src/serve).
//
// Runs a battery of seeded storm scenarios against serve::Server — burst
// arrivals, slow clients, malformed streams, queue overflow, injected
// classify throws, mid-drill cancellation, everything at once, and a
// classify-saturation storm that makes the classify stage the bottleneck —
// and asserts the service's robustness contracts on every one:
//
//   * determinism — the CRC-32 fingerprint of the sorted terminal records
//     is bit-identical between --jobs=1 and --jobs=N (any parallelism only
//     reorders work, never changes a verdict);
//   * conservation — every admitted session gets exactly one terminal
//     record (lost_sessions == 0), no matter how the drill misbehaves;
//   * zero false positives — no good-labelled session ever receives a
//     known bad verdict; overload degrades to explicit abstention instead.
//
// Results are written to BENCH_serve.json (schema fsml-bench-serve-v3): a
// host block (CPUs, build type — wall-clock figures only compare within one
// host) and one object per scenario with its outcome counts, fingerprint,
// classify p50/p99 and sessions/second.
//
// Options (beyond bench_common.hpp's standard ones):
//   --sessions=48        clients per scenario (4..100000)
//   --check-jobs=4       second --jobs value for the determinism cross-check
//                        (0 disables the cross-run)
//   --reduced-train      train on the reduced mini-program set (fast, used
//                        by the CI smoke job) instead of the cached full set
//   --out=BENCH_serve.json  JSON artifact path (empty string disables)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/drill.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

using namespace fsml;

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const auto sessions = static_cast<std::size_t>(
        cli.get_int_in("sessions", 48, 4, 100000));
    const auto check_jobs = static_cast<std::size_t>(
        cli.get_int_in("check-jobs", 4, 0, 4096));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const std::string out_path = cli.get("out", "BENCH_serve.json");
    const std::size_t jobs = par::cli_jobs(cli);

    core::FalseSharingDetector detector;
    if (cli.get_bool("reduced-train", false)) {
      core::TrainingConfig train = core::TrainingConfig::reduced();
      train.seed = seed;
      train.jobs = jobs;
      detector.train(core::collect_training_data(train, &std::cerr));
    } else {
      detector = bench::trained_detector(bench::training_data(cli));
    }

    const std::vector<core::EvalRun> templates =
        serve::drill_templates(seed, jobs, &std::cerr);

    util::Table table({"scenario", "records", "verdicts", "abstain", "shed",
                       "p99", "shed-rate", "fingerprint"});
    for (std::size_t col = 1; col < table.num_columns(); ++col)
      table.set_align(col, util::Align::kRight);

    const unsigned host_cpus =
        std::max(1u, std::thread::hardware_concurrency());
    std::string json = std::string("{\n  \"schema\": \"") +
                       serve::kBenchServeSchema + "\",\n";
    json += "  \"host\": {\"cpus\": " + std::to_string(host_cpus) +
            ", \"build_type\": \"" + FSML_BUILD_TYPE + "\"},\n";
    json += "  \"seed\": " + std::to_string(seed) + ",\n";
    json += "  \"sessions\": " + std::to_string(sessions) + ",\n";
    json += "  \"scenarios\": [\n";

    bool first = true;
    for (const serve::DrillScenario& scenario :
         serve::drill_battery(sessions, seed)) {
      serve::DrillConfig config = scenario.config;
      config.jobs = jobs;
      std::fprintf(stderr, "drill %s (jobs=%zu)...\n", scenario.name.c_str(),
                   jobs);
      const serve::DrillReport report =
          serve::run_drill(detector, templates, config, &std::cerr);

      // Contract 1: conservation. Contract 2: the 0-FP bar under chaos.
      FSML_CHECK_MSG(report.lost_sessions == 0,
                     "drill '" + scenario.name + "' lost sessions");
      FSML_CHECK_MSG(report.false_positives == 0,
                     "drill '" + scenario.name +
                         "' produced a false positive under chaos");

      // Contract 3: bit-identical verdict sets across --jobs.
      if (check_jobs > 0 && check_jobs != jobs) {
        serve::DrillConfig cross = scenario.config;
        cross.jobs = check_jobs;
        const serve::DrillReport replay =
            serve::run_drill(detector, templates, cross, nullptr);
        FSML_CHECK_MSG(replay.fingerprint == report.fingerprint &&
                           replay.records.size() == report.records.size(),
                       "drill '" + scenario.name +
                           "' verdict set depends on --jobs");
      }

      char p99[24], rate[24], fp[16];
      std::snprintf(p99, sizeof p99, "%llu",
                    static_cast<unsigned long long>(report.latency_p99_steps));
      std::snprintf(rate, sizeof rate, "%.2f", report.shed_rate);
      std::snprintf(fp, sizeof fp, "%08x", report.fingerprint);
      table.add_row({scenario.name, std::to_string(report.records.size()),
                     std::to_string(report.verdicts),
                     std::to_string(report.abstained),
                     std::to_string(report.shed), p99, rate, fp});

      std::ostringstream entry;
      report.write_json(entry, scenario.name, config);
      json += (first ? "" : ",\n") + entry.str();
      first = false;
    }
    json += "\n  ]\n}\n";

    std::printf("Chaos drills: %zu sessions per scenario, seed %llu\n",
                sessions, static_cast<unsigned long long>(seed));
    table.render(std::cout);
    std::printf(
        "\nAll scenarios: 0 false positives, 0 lost sessions, verdict sets "
        "bit-identical across --jobs.\n");

    if (!out_path.empty()) {
      util::write_file_atomic(out_path, json);
      std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_drill: %s\n", e.what());
    return 1;
  }
}

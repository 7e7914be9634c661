// Shared plumbing for the paper-table bench binaries.
//
// Every bench accepts:
//   --cache=PATH   training-data cache (default fsml_training_cache.csv in
//                  the working directory; collected on first use)
//   --seed=N       experiment seed
//   --jobs=N       host threads for collection/sweeps (default = all
//                  hardware threads, 1 = serial; results are bit-identical
//                  for any N — see src/par)
// plus bench-specific options documented in each binary.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/shadow_detector.hpp"
#include "core/detector.hpp"
#include "core/training.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "trainers/trainer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"
#include "workloads/workload.hpp"

namespace fsml::bench {

/// A pool on which par::cli_jobs threads execute.
inline par::ThreadPool make_pool(const util::Cli& cli) {
  return par::ThreadPool(par::pool_workers(par::cli_jobs(cli)));
}

/// Loads (or collects and caches) the full training data set.
inline core::TrainingData training_data(const util::Cli& cli) {
  core::TrainingConfig config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  config.jobs = par::cli_jobs(cli);
  const std::string cache =
      cli.get("cache", "fsml_training_cache.csv");
  return core::collect_or_load(config, cache, &std::cerr);
}

/// Trains the paper's J48 detector on the cached data.
inline core::FalseSharingDetector trained_detector(
    const core::TrainingData& data) {
  core::FalseSharingDetector detector;
  detector.train(data);
  return detector;
}

/// "0.28s" / "3m12.78s" plus the classification tag the paper encodes as
/// cell colour: "0.28s*FS" (bad-fs), "0.28s" (good), "0.28s~MA" (bad-ma).
inline std::string time_cell(double seconds, trainers::Mode mode) {
  std::string cell = util::auto_time(seconds);
  switch (mode) {
    case trainers::Mode::kBadFs: return cell + " *FS";
    case trainers::Mode::kBadMa: return cell + " ~MA";
    case trainers::Mode::kGood: return cell;
  }
  return cell;
}

/// One verified benchmark case: our classification plus the Zhao
/// ground-truth rate from the same run.
struct VerifiedCase {
  std::string workload;
  std::string input;
  workloads::OptLevel opt{};
  std::uint32_t threads = 0;
  trainers::Mode detected = trainers::Mode::kGood;
  double seconds = 0.0;
  double fs_rate = 0.0;
  bool actual_fs = false;
};

/// Runs one workload case with the shadow detector attached: a single
/// simulated execution yields both the PMU features (our classifier input)
/// and the ground-truth false-sharing rate.
inline VerifiedCase run_verified(const workloads::Workload& w,
                                 const workloads::WorkloadCase& wcase,
                                 const core::FalseSharingDetector& detector,
                                 const sim::MachineConfig& machine) {
  baseline::ShadowDetector shadow(wcase.threads);
  const workloads::WorkloadRun run =
      run_workload(w, wcase, machine, &shadow);
  const baseline::SharingReport report = shadow.report();
  VerifiedCase out;
  out.workload = std::string(w.name());
  out.input = wcase.input;
  out.opt = wcase.opt;
  out.threads = wcase.threads;
  out.detected = detector.classify(run.features);
  out.seconds = run.seconds;
  out.fs_rate = report.false_sharing_rate();
  out.actual_fs = report.has_false_sharing();
  return out;
}

/// Runs many cases of one workload on the host pool, one simulation per
/// job; results come back in `cases` order, so tables built from them are
/// identical to a serial sweep.
inline std::vector<VerifiedCase> run_verified_cases(
    par::ThreadPool& pool, const workloads::Workload& w,
    const std::vector<workloads::WorkloadCase>& cases,
    const core::FalseSharingDetector& detector,
    const sim::MachineConfig& machine) {
  return par::parallel_transform(
      pool, cases, [&](const workloads::WorkloadCase& wcase) {
        return run_verified(w, wcase, detector, machine);
      });
}

/// The thread counts the ground-truth tool can verify (8-thread limit).
inline std::vector<std::uint32_t> verifiable_threads(workloads::Suite suite) {
  return suite == workloads::Suite::kPhoenix
             ? std::vector<std::uint32_t>{3, 6}
             : std::vector<std::uint32_t>{4, 8};
}

/// Input sets used for verification (the paper could not run the
/// ground-truth tool on PARSEC's long "native" inputs).
inline std::vector<std::string> verifiable_inputs(
    const workloads::Workload& w) {
  std::vector<std::string> inputs = w.input_sets();
  if (w.suite() == workloads::Suite::kParsec && inputs.size() == 4)
    inputs.pop_back();  // drop "native"
  return inputs;
}

}  // namespace fsml::bench

// table_faults — reliability of the supervised collection pipeline under a
// deterministic fault schedule (not a paper table; an engineering artifact
// for the fault-tolerance contract in DESIGN.md §10).
//
// Sweeps fault rate x retry budget over the reduced training grid with a
// seeded FaultPlan injecting transient throws that fail the first two
// attempts of an afflicted cell. A retry budget of 3 rides out every
// injected fault; smaller budgets quarantine cells instead of failing the
// sweep. The last row adds two persistent hangs reaped by the per-attempt
// deadline. Reported per cell: completion rate, quarantined cells, wasted
// attempts (retries beyond each job's first), and wall-clock.
//
//   --rates=0,0.05,0.15,0.30   injected transient-throw rates
//   --retries=1,2,3            retry budgets (attempts per job)
//   --seed=N                   fault-plan seed (default 2026)
//   --jobs=N                   host threads (bit-identical for any N)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"

using namespace fsml;

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const auto rates =
        cli.get_double_list("rates", {0.0, 0.05, 0.15, 0.30}, 0.0, 1.0);
    const auto budgets = cli.get_int_list("retries", {1, 2, 3}, 1, 100);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2026));

    core::TrainingConfig config = core::TrainingConfig::reduced();
    config.thread_counts = {3};
    config.jobs = par::cli_jobs(cli);
    config.filter = false;  // completion accounting wants the raw grid

    // Two cells that hang on every attempt, for the deadline row.
    const trainers::MiniProgram& victim = *trainers::multithreaded_set()[0];
    const std::uint64_t vsize = victim.default_sizes()[0];
    const std::string prefix = std::string(victim.name()) + "/" +
                               std::to_string(vsize) + "/3/";
    const std::vector<std::string> hang_keys = {prefix + "good/linear/0",
                                                prefix + "bad-fs/linear/0"};

    util::Table table({"faults", "retries", "jobs", "completed", "quarantined",
                       "wasted", "completion", "time"});
    const auto run_cell = [&](double rate, int budget, bool with_hangs) {
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.throw_rate = rate;
      plan.throw_attempts = 2;  // survives only with a budget of >= 3
      if (with_hangs) plan.hang_keys = hang_keys;
      fault::FaultInjector injector(plan);

      core::CollectOptions options;
      options.injector = &injector;
      options.max_attempts = budget;
      if (with_hangs) options.deadline = std::chrono::milliseconds(2000);

      core::CollectReport report;
      const auto start = std::chrono::steady_clock::now();
      core::collect_training_data(config, nullptr, options, &report);
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();

      const std::size_t completed =
          report.total_jobs - report.quarantined.size();
      char rate_s[16], completion[16];
      std::snprintf(rate_s, sizeof rate_s, with_hangs ? "%.2f+hang" : "%.2f",
                    rate);
      std::snprintf(completion, sizeof completion, "%.1f%%",
                    100.0 * static_cast<double>(completed) /
                        static_cast<double>(report.total_jobs));
      table.add_row({rate_s, std::to_string(budget),
                     std::to_string(report.total_jobs),
                     std::to_string(completed),
                     std::to_string(report.quarantined.size()),
                     std::to_string(report.retried_attempts), completion,
                     util::auto_time(elapsed)});
    };

    for (const double rate : rates)
      for (const std::int64_t budget : budgets)
        run_cell(rate, static_cast<int>(budget), false);
    run_cell(0.0, 1, true);  // persistent hangs, reaped by the deadline

    table.render(std::cout);
    std::printf(
        "\nthrows fail the first 2 attempts of an afflicted cell; hangs\n"
        "sleep until their 2 s per-attempt deadline passes. Quarantined\n"
        "cells are recorded, never fatal; the same plan seed reproduces\n"
        "the same table on any host thread count.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

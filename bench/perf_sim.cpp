// Simulator-throughput microbenchmark: the perf trajectory of the sim hot
// path finally gets data.
//
// Runs the standard multi-threaded mini-program sweep (good + bad-fs +,
// where supported, bad-ma) at the requested simulated core counts and
// reports simulated accesses, best-of-reps wall time and accesses/second
// per core count. Coherence lookups go through the O(1) directory
// (sim/directory.hpp), the simulator's only lookup path, so the rows show
// how host cost grows with the peers a miss can involve.
//
// Core counts up to 64 run on a single socket; 65..128 run as a 2-socket
// and 129..256 as a 4-socket NUMA machine (the hierarchical sharer mask's
// 128/256-core scenario family the paper's hardware could never express).
//
// Results are written to BENCH_sim.json (schema fsml-bench-sim-v5): a host
// block (CPUs, build type — the same binary's numbers vary about 3x between
// hosts) and one row per core count carrying its socket count. CI runs this
// binary on every push, checks each row's access total against the
// committed BENCH_sim.json and uploads the artifact, so regressions show up
// as a trend break rather than an anecdote.
//
// Options (beyond bench_common.hpp's standard ones):
//   --cores=1,8,16,32,128,256  simulated core counts to sweep (1..256;
//                          multi-socket counts must divide evenly)
//   --reps=2            timed repetitions per core count (best is kept)
//   --out=BENCH_sim.json  JSON artifact path (empty string disables)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/machine_config.hpp"
#include "sim/raw_events.hpp"
#include "trainers/trainer.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace {

using namespace fsml;

struct SweepResult {
  std::uint64_t accesses = 0;  ///< simulated loads+stores+atomics retired
  double seconds = 0.0;        ///< best-of-reps host wall time
};

std::uint64_t retired_accesses(const sim::RawCounters& c) {
  return c.get(sim::RawEvent::kLoadsRetired) +
         c.get(sim::RawEvent::kStoresRetired) +
         c.get(sim::RawEvent::kAtomicsRetired);
}

/// Machine for a sweep point: single socket up to 64 cores (unchanged from
/// the v1 sweep), 2 sockets up to 128, 4 sockets up to 256.
sim::MachineConfig sweep_machine(std::uint32_t cores) {
  if (cores <= 12)
    return sim::MachineConfig::westmere_dp(std::max(cores, 2u));
  if (cores <= 64) return sim::MachineConfig::xeon32(cores);
  const std::uint32_t sockets = cores <= 128 ? 2 : 4;
  FSML_CHECK_MSG(cores % sockets == 0,
                 "multi-socket sweep core counts must divide evenly across "
                 "2 (<=128) or 4 (<=256) sockets");
  return sim::MachineConfig::numa(sockets, cores / sockets);
}

/// One full mini-program sweep at `cores` simulated cores. The sweep is the
/// collection workload in miniature: every multi-threaded trainer in every
/// mode it supports, smallest default problem size.
SweepResult run_sweep(std::uint32_t cores, int reps, std::uint64_t seed) {
  sim::MachineConfig machine = sweep_machine(cores);
  machine.num_cores = cores;

  SweepResult best;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t accesses = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const trainers::MiniProgram* program : trainers::multithreaded_set()) {
      for (const trainers::Mode mode :
           {trainers::Mode::kGood, trainers::Mode::kBadFs,
            trainers::Mode::kBadMa}) {
        if (mode == trainers::Mode::kBadMa && !program->supports_bad_ma())
          continue;
        trainers::TrainerParams params;
        params.mode = mode;
        params.threads = cores;
        params.size = program->default_sizes().front();
        params.seed = seed;
        const trainers::TrainerRun run =
            trainers::run_trainer(*program, params, machine);
        accesses += retired_accesses(run.raw);
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (rep == 0) {
      best.accesses = accesses;
      best.seconds = elapsed.count();
    } else {
      // The simulation is deterministic; only the host timing varies.
      FSML_CHECK_MSG(accesses == best.accesses,
                     "simulated access count must not vary across reps");
      best.seconds = std::min(best.seconds, elapsed.count());
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);

  std::vector<std::int64_t> cores_list =
      cli.get_int_list("cores", {1, 8, 16, 32, 128, 256}, 1, 256);
  const int reps = static_cast<int>(cli.get_int_in("reps", 2, 1, 100));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string out = cli.get("out", "BENCH_sim.json");
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());

  util::Table table({"cores", "sim accesses", "wall", "acc/s"});
  for (std::size_t col = 1; col < table.num_columns(); ++col)
    table.set_align(col, util::Align::kRight);

  std::string json = "{\n  \"schema\": \"fsml-bench-sim-v5\",\n"
                     "  \"host\": {\"cpus\": " +
                     std::to_string(host_cpus) + ", \"build_type\": \"" +
                     FSML_BUILD_TYPE + "\"},\n  \"reps\": " +
                     std::to_string(reps) + ",\n  \"results\": [";
  bool first = true;
  for (const std::int64_t cores64 : cores_list) {
    FSML_CHECK_MSG(cores64 >= 1 && cores64 <= 256,
                   "--cores entries must be in 1..256");
    const auto cores = static_cast<std::uint32_t>(cores64);
    const std::uint32_t sockets = sweep_machine(cores).topology.sockets;
    const SweepResult r = run_sweep(cores, reps, seed);
    const double per_sec = r.accesses / r.seconds;
    table.add_row({std::to_string(cores), std::to_string(r.accesses),
                   util::auto_time(r.seconds),
                   std::to_string(static_cast<std::uint64_t>(per_sec))});
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "\n    {\"cores\": %u, \"sockets\": %u, "
                  "\"accesses\": %llu, \"seconds\": %.6f, "
                  "\"accesses_per_sec\": %.0f}",
                  cores, sockets,
                  static_cast<unsigned long long>(r.accesses), r.seconds,
                  per_sec);
    json += (first ? "" : ",");
    json += entry;
    first = false;
  }

  std::cout << "Simulator throughput: standard mini-program sweep, best of "
            << reps << " rep(s), " << host_cpus << " host CPU(s), "
            << FSML_BUILD_TYPE << " build\n";
  table.render(std::cout);

  json += "\n  ]\n}\n";
  if (!out.empty()) {
    util::write_file_atomic(out, json);
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}

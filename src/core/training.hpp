// Collection of training data (paper §3.1).
//
// Part A: every multi-threaded mini-program x problem sizes x thread counts
// x all supported modes, several repetitions each. Part B: every sequential
// mini-program x sizes x {good, bad-ma(random), bad-ma(strided)}.
//
// The paper manually removed instances "where the difference from
// corresponding good cases was not significant enough"; we encode that
// inspection as an explicit runtime-gap filter (see TrainingConfig), so the
// Table-3 census is regenerated rather than transcribed:
//  * Part A: bad-ma instances of a (program, size, threads) group are
//    removed when the group's median bad-ma runtime is less than 1.2x the
//    matching good median.
//  * Part B: *whole groups* (good and bad-ma instances alike) are removed
//    under the same condition — for tiny arrays both variants behave the
//    same and neither is useful training signal.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/labels.hpp"
#include "fault/fault.hpp"
#include "ml/dataset.hpp"
#include "par/supervisor.hpp"
#include "pmu/counters.hpp"
#include "sim/machine_config.hpp"
#include "trainers/trainer.hpp"

namespace fsml::core {

struct TrainingConfig {
  std::vector<std::uint32_t> thread_counts = {3, 6, 9, 12};
  int reps_good = 3;
  int reps_bad_fs = 2;
  int reps_bad_ma = 2;       ///< all patterns: reps alternate random/strided
  int seq_reps_good = 6;
  int seq_reps_bad_ma = 2;   ///< per access pattern (random, strided)
  bool filter = true;
  std::uint64_t seed = 42;
  /// Host threads running simulations concurrently. 0 = hardware
  /// concurrency; 1 = fully serial (the pre-fsml::par behaviour). Any value
  /// yields bit-identical TrainingData: every run's seed derives from its
  /// job coordinates and rows assemble in job-list order (see src/par).
  std::size_t jobs = 0;
  sim::MachineConfig machine = sim::MachineConfig::westmere_dp(12);

  /// Smaller configuration for unit tests (2 sizes, 2 thread counts, 1 rep).
  static TrainingConfig reduced();
};

/// One labelled training instance with its provenance.
struct LabeledInstance {
  pmu::FeatureVector features;
  int label = kGood;
  std::string program;
  std::uint64_t size = 0;
  std::uint32_t threads = 1;
  trainers::AccessPattern pattern = trainers::AccessPattern::kLinear;
  double seconds = 0.0;
  bool part_a = true;
  /// Derived NUMA-locality ratios (core::derived_locality); exactly 0 on
  /// single-socket machines, so pre-existing caches load as all-zero.
  double hitm_remote_ratio = 0.0;
  double dram_remote_ratio = 0.0;
};

/// The 15 normalized features plus the two locality ratios, in
/// extended_feature_names() order — the row shape consumed by the
/// zero-positive anomaly model.
std::vector<double> extended_row(const LabeledInstance& inst);

/// Census in the shape of the paper's Table 3.
struct Census {
  std::size_t initial_good = 0, initial_bad_fs = 0, initial_bad_ma = 0;
  std::size_t removed_good = 0, removed_bad_fs = 0, removed_bad_ma = 0;
  std::size_t final_good() const { return initial_good - removed_good; }
  std::size_t final_bad_fs() const { return initial_bad_fs - removed_bad_fs; }
  std::size_t final_bad_ma() const { return initial_bad_ma - removed_bad_ma; }
  std::size_t final_total() const {
    return final_good() + final_bad_fs() + final_bad_ma();
  }
};

struct TrainingData {
  std::vector<LabeledInstance> instances;  ///< after filtering, A then B
  Census census_a;
  Census census_b;

  /// Converts to an ML dataset (15 normalized features + class).
  ml::Dataset to_dataset() const;

  /// Extended rows of the good-labelled instances only — the zero-positive
  /// anomaly model's training set.
  std::vector<std::vector<double>> good_extended_rows() const;

  /// CSV persistence (features, label, provenance) so expensive collection
  /// runs once and every bench reuses it.
  void save_csv(std::ostream& os) const;
  static TrainingData load_csv(std::istream& is);
};

/// Reliability knobs for a collection sweep. The defaults inject no
/// faults, set no deadline and keep no journal.
struct CollectOptions {
  /// Fault-injection schedule for tests/benches; nullptr = no faults.
  /// Non-const because the abort counter advances as jobs complete.
  fault::FaultInjector* injector = nullptr;
  /// Attempts per job (first run + retries), 1..100. A failed attempt is
  /// retried at once.
  int max_attempts = 3;
  /// Wall-clock budget of each attempt, counted from when that attempt
  /// starts; zero = no deadline. Negative values are rejected.
  std::chrono::milliseconds deadline{0};
  /// Append-only progress journal (one fsync'd record per completed job);
  /// empty disables journaling. collect_or_load defaults this to
  /// "<cache>.journal".
  std::string journal_path;
  /// Replay a matching journal before running (crash recovery). When false
  /// any existing journal is discarded and the sweep starts fresh.
  bool resume = false;
};

/// One quarantined job: its cell coordinates plus par::supervise's record.
struct QuarantinedCell {
  par::JobFailure failure;
  std::string cell;  ///< "program/size/threads/mode/pattern/rep"
};

/// What a supervised sweep did, for logging, benches, and tests.
struct CollectReport {
  std::vector<QuarantinedCell> quarantined;  ///< sorted by job index
  std::size_t total_jobs = 0;
  std::size_t replayed = 0;          ///< jobs restored from the journal
  std::size_t executed = 0;          ///< jobs actually simulated
  std::size_t retried_attempts = 0;  ///< wasted work (attempts beyond first)
};

/// Runs the full collection: the (program x mode x threads x size x rep)
/// job list is enumerated up front and executed on `config.jobs` host
/// threads (each job builds its own exec::Machine), then rows are filtered
/// and assembled in job-list order. Progress lines go to `log` if non-null;
/// writes to `log` are serialized across jobs.
///
/// `options` add crash safety: per-attempt deadlines, bounded retries,
/// quarantine of persistently failing cells (recorded in `report` instead
/// of killing the sweep), and an fsync'd journal so an interrupted sweep
/// resumes by re-running only missing cells. For a fixed fault schedule the
/// outcome — rows, census, quarantine set — is deterministic, and with
/// default options no fault is injected, so the rows are those of a clean
/// sweep. Throws std::runtime_error on a negative deadline or max_attempts
/// outside 1..100.
TrainingData collect_training_data(const TrainingConfig& config,
                                   std::ostream* log = nullptr,
                                   const CollectOptions& options = {},
                                   CollectReport* report = nullptr);

/// Loads the cache at `path` if present and well-formed, otherwise collects
/// and saves it. A truncated or corrupt cache file (row-count census or
/// CRC32 footer mismatch) is rejected and re-collected (and overwritten)
/// instead of crashing or silently loading bad data. The cache is written
/// through util::AtomicFile — an interrupt can never leave a torn artifact
/// — and the collection journals to "<cache>.journal" (removed once the
/// cache commits), so `options.resume` continues an interrupted sweep. A
/// sweep that quarantined cells returns its rows but commits no cache and
/// keeps the journal, so a resume re-runs only the quarantined cells.
TrainingData collect_or_load(const TrainingConfig& config,
                             const std::string& path,
                             std::ostream* log = nullptr,
                             const CollectOptions& options = {},
                             CollectReport* report = nullptr);

}  // namespace fsml::core

// Identification of relevant performance events (paper §2.3).
//
// The procedure searches the candidate event list in two steps:
//  1. run every multi-threaded mini-program in "good" and "bad-fs" modes
//     across several thread counts; an event is a *fs-discriminator* if its
//     normalized count differs by at least `ratio_threshold` (the paper's
//     "minimum 2x ratio" heuristic) between the two modes for a majority of
//     the mini-programs;
//  2. for the remaining candidates, repeat with "good" vs "bad-ma" over the
//     programs that have a bad-ma variant (plus the sequential set).
//
// The union of both steps (plus Instructions_Retired, the normalizer) is
// the event set the classifier consumes — the paper's Table 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine_config.hpp"
#include "sim/raw_events.hpp"

namespace fsml::core {

struct EventSelectionConfig {
  double ratio_threshold = 2.0;      ///< paper's "minimum 2x" heuristic
  std::vector<std::uint32_t> thread_counts = {3, 6, 9, 12};
  std::uint64_t seed = 1;
  sim::MachineConfig machine = sim::MachineConfig::westmere_dp(12);
};

struct EventStat {
  sim::RawEvent event{};
  std::size_t programs_passed = 0;
  std::size_t programs_total = 0;
  double median_ratio = 0.0;  ///< median over programs of max(r, 1/r)
};

struct EventSelectionResult {
  std::vector<sim::RawEvent> fs_discriminators;  ///< step 1
  std::vector<sim::RawEvent> ma_discriminators;  ///< step 2
  std::vector<sim::RawEvent> selected;           ///< union, stable order
  std::vector<EventStat> fs_stats;               ///< all candidates, step 1
  std::vector<EventStat> ma_stats;               ///< remaining, step 2
};

EventSelectionResult select_events(const EventSelectionConfig& config);

// ---- derived NUMA-locality features ----------------------------------------
//
// Two ratios summarizing *where* coherence traffic was served from, derived
// from the simulator's socket-aware raw counters rather than measured as
// their own PMU events. Both are exactly zero on a single-socket machine
// (the remote counters never fire there), so models trained before these
// features existed stay bit-identical when the ratios are appended: a
// constant-zero attribute carries no information gain and the C4.5 tree
// never splits on it.

struct LocalityFeatures {
  /// Remote HITM transfers / all HITM transfers; high values mean modified
  /// lines ping-pong across the QPI link, not just between sibling cores.
  double hitm_remote_ratio = 0.0;
  /// DRAM reads homed on another socket / all DRAM reads.
  double dram_remote_ratio = 0.0;
};

/// Computes the ratios from an aggregate raw-counter bank. A zero
/// denominator (no HITMs / no DRAM reads at all) yields a 0.0 ratio.
LocalityFeatures derived_locality(const sim::RawCounters& raw);

/// The 15 normalized Table-2 feature names plus the two locality ratios —
/// the attribute schema of the extended dataset and the zero-positive
/// anomaly model.
std::vector<std::string> extended_feature_names();

}  // namespace fsml::core

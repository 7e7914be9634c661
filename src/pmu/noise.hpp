// MeasurementModel: deterministic emulation of degraded PMU measurement.
//
// The paper's 15-feature vector assumes a clean simultaneous read of all 16
// Table-2 events, but a real Westmere core has only 4 programmable counters:
// perf multiplexes the requested events in rotating groups and scales each
// count by its coverage fraction (time_running / time_enabled). That
// introduces coverage error on phase-varying programs, run-to-run jitter,
// and occasionally unusable counts. This model reproduces those effects on
// top of the simulator's pristine counters so the rest of the pipeline can
// be hardened — and tested — against them:
//
//  * multiplexing: the 16 events are scheduled round-robin into groups of
//    `counters`; each event is observed only during the time slices its
//    group was resident and scaled by total/observed slice count (exactly
//    the time_enabled/time_running compensation perf applies). Without
//    per-slice data the scaling is exact, so coverage error only appears on
//    sliced runs — which is faithful: multiplexing error *is* a
//    time-variation artifact.
//  * jitter: each observed count is multiplied by a uniform factor in
//    [1-jitter, 1+jitter].
//  * faults: an event is dropped (unreadable) with `drop_probability`, and
//    any count that reaches kSaturationLimit (2^48) pegs there and is
//    flagged unusable (a saturated counter is detectably garbage, not
//    silently wrong).
//
// Everything is a pure function of (NoiseConfig::seed, measurement_id):
// repeated measurements of the same run differ (fresh jitter/faults/rotation
// phase per id), but any (seed, id) pair is bit-exactly reproducible, on any
// host thread count.
//
// A default-constructed NoiseConfig degrades nothing: measure() then
// returns the clean counts with every event present, so the entire noise
// path is strictly opt-in.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "pmu/counters.hpp"
#include "pmu/events.hpp"
#include "sim/raw_events.hpp"

namespace fsml::pmu {

/// Counts at or above this value peg and are flagged unusable: the width
/// of a full Westmere counter, which clean simulated counts never reach.
inline constexpr std::uint64_t kSaturationLimit = 1ULL << 48;

struct NoiseConfig {
  /// Programmable counters available per multiplex group; 0 means "enough
  /// for all 16 events at once" (no multiplexing). Westmere has 4.
  std::size_t counters = 0;
  /// Half-width of the multiplicative per-event jitter: each count is
  /// scaled by a uniform factor in [1-jitter, 1+jitter]. 0 disables.
  double jitter = 0.0;
  /// Probability that an event's count is unreadable for one measurement.
  double drop_probability = 0.0;
  std::uint64_t seed = 0;

  /// Throws std::runtime_error on out-of-range parameters (jitter and
  /// drop_probability in [0,1], counters <= 16, NaN rejected).
  void validate() const;
};

/// One degraded read of the PMU: counts plus per-event usability. A dropped
/// or saturated event is absent (`present` false); its count is 0 for drops
/// and the pegged limit for saturations.
struct DegradedSnapshot {
  CounterSnapshot counts;
  std::array<bool, kNumWestmereEvents> present{};
  std::array<bool, kNumWestmereEvents> saturated{};

  bool has(WestmereEvent e) const {
    return present[static_cast<std::size_t>(e)];
  }
  std::size_t num_missing() const;

  /// A snapshot classifies only if the normalizer survived: instructions
  /// present and non-zero.
  bool usable() const;

  /// Normalized features with NaN in every missing slot (the ML layer's
  /// missing-value sentinel). Requires usable().
  FeatureVector to_features() const;
};

class MeasurementModel {
 public:
  explicit MeasurementModel(NoiseConfig config);

  /// Multiplex groups the 16 events are scheduled into (1 = no rotation).
  std::size_t num_groups() const { return num_groups_; }

  /// Degrades one measurement of a run. `slices` are the per-time-slice raw
  /// counter deltas of the run (exec::RunResult::slices); empty means no
  /// time-resolved data, in which case multiplex scaling is exact and only
  /// jitter/faults degrade. `measurement_id` selects an independent noise
  /// draw — use the repeat index.
  DegradedSnapshot measure(const sim::RawCounters& aggregate,
                           std::span<const sim::RawCounters> slices,
                           std::uint64_t measurement_id) const;

  /// Convenience for snapshot-only callers (no slice data).
  DegradedSnapshot measure(const CounterSnapshot& clean,
                           std::uint64_t measurement_id) const;

 private:
  DegradedSnapshot degrade(const CounterSnapshot& clean,
                           std::span<const sim::RawCounters> slices,
                           std::uint64_t measurement_id) const;

  NoiseConfig config_;
  std::size_t num_groups_ = 1;
};

}  // namespace fsml::pmu

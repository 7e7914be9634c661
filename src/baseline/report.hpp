// Common report type for the ground-truth sharing detectors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace fsml::baseline {

/// The Zhao et al. [VEE'11] decision rule: false sharing is present when
/// the false-sharing rate (false-sharing misses / instructions executed)
/// exceeds 1e-3.
inline constexpr double kFalseSharingRateThreshold = 1e-3;

struct LineStat {
  sim::Addr line = 0;
  std::uint64_t false_sharing_events = 0;
  std::uint64_t true_sharing_events = 0;
  std::uint32_t writer_mask = 0;  ///< bit per thread that wrote the line
};

struct SharingReport {
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t true_sharing_misses = 0;
  std::uint64_t false_sharing_misses = 0;

  double false_sharing_rate() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(false_sharing_misses) /
                                   static_cast<double>(instructions);
  }
  bool has_false_sharing(double threshold = kFalseSharingRateThreshold) const {
    return false_sharing_rate() > threshold;
  }

  /// Worst lines by false-sharing events, descending (the "finer
  /// granularity" view the paper lists as future work).
  std::vector<LineStat> top_lines;
};

}  // namespace fsml::baseline

#include "pmu/noise.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace fsml::pmu {

namespace {

/// Independent, well-mixed stream per (seed, measurement_id): both inputs
/// pass through SplitMix64 so nearby seeds/ids do not correlate.
util::Rng measurement_rng(std::uint64_t seed, std::uint64_t measurement_id) {
  util::SplitMix64 a(seed);
  util::SplitMix64 b(measurement_id ^ 0x6a09e667f3bcc909ULL);
  return util::Rng(a.next() ^ b.next());
}

}  // namespace

void NoiseConfig::validate() const {
  const auto bad = [](const std::string& what) {
    throw std::runtime_error("NoiseConfig: " + what);
  };
  if (std::isnan(jitter) || jitter < 0.0 || jitter > 1.0)
    bad("jitter must be in [0, 1]");
  if (std::isnan(drop_probability) || drop_probability < 0.0 ||
      drop_probability > 1.0)
    bad("drop_probability must be in [0, 1]");
  if (counters > kNumWestmereEvents)
    bad("counters must be 0 (unlimited) .. 16");
}

std::size_t DegradedSnapshot::num_missing() const {
  std::size_t n = 0;
  for (const bool p : present)
    if (!p) ++n;
  return n;
}

bool DegradedSnapshot::usable() const {
  return has(WestmereEvent::kInstructionsRetired) &&
         counts.instructions() > 0;
}

FeatureVector DegradedSnapshot::to_features() const {
  FSML_CHECK_MSG(usable(),
                 "cannot normalize a snapshot whose instruction count was "
                 "lost — check usable() first");
  const auto instructions = static_cast<double>(counts.instructions());
  FeatureVector fv;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const auto e = static_cast<WestmereEvent>(i);
    fv.set(i, present[i] ? static_cast<double>(counts.get(e)) / instructions
                         : std::numeric_limits<double>::quiet_NaN());
  }
  return fv;
}

MeasurementModel::MeasurementModel(NoiseConfig config) : config_(config) {
  config_.validate();
  if (config_.counters > 0 && config_.counters < kNumWestmereEvents)
    num_groups_ =
        (kNumWestmereEvents + config_.counters - 1) / config_.counters;
}

DegradedSnapshot MeasurementModel::measure(
    const sim::RawCounters& aggregate,
    std::span<const sim::RawCounters> slices,
    std::uint64_t measurement_id) const {
  return degrade(CounterSnapshot::from_raw(aggregate), slices,
                 measurement_id);
}

DegradedSnapshot MeasurementModel::measure(
    const CounterSnapshot& clean, std::uint64_t measurement_id) const {
  return degrade(clean, {}, measurement_id);
}

DegradedSnapshot MeasurementModel::degrade(
    const CounterSnapshot& clean, std::span<const sim::RawCounters> slices,
    std::uint64_t measurement_id) const {
  util::Rng rng = measurement_rng(config_.seed, measurement_id);
  // The draw schedule is fixed — one phase, then (jitter, drop) per event in
  // table order — so a measurement depends only on (seed, id), never on
  // counter values or on which degradations happen to trigger.
  const std::size_t phase = rng.next_below(num_groups_);

  // Per-slice Table-2 counts, needed only when rotation actually loses
  // coverage (more than one group and time-resolved data to lose it in).
  std::vector<CounterSnapshot> slice_counts;
  const bool rotate = num_groups_ > 1 && !slices.empty();
  if (rotate) {
    slice_counts.reserve(slices.size());
    for (const sim::RawCounters& raw : slices)
      slice_counts.push_back(CounterSnapshot::from_raw(raw));
  }

  DegradedSnapshot out;
  for (std::size_t i = 0; i < kNumWestmereEvents; ++i) {
    const double jitter_draw = rng.next_double();
    const double drop_draw = rng.next_double();
    const auto e = static_cast<WestmereEvent>(i);

    bool lost = false;
    std::uint64_t value = clean.get(e);
    if (rotate) {
      // Event i is resident only while its group is scheduled; compensate
      // with the time_enabled/time_running scaling perf performs.
      const std::size_t group = i / config_.counters;
      std::uint64_t sum = 0, resident = 0;
      for (std::size_t s = 0; s < slice_counts.size(); ++s) {
        if ((s + phase) % num_groups_ != group) continue;
        sum += slice_counts[s].get(e);
        ++resident;
      }
      if (resident == 0) {
        lost = true;  // run shorter than one full rotation
      } else {
        const double scale = static_cast<double>(slice_counts.size()) /
                             static_cast<double>(resident);
        value = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(sum) * scale));
      }
    }
    if (config_.jitter > 0.0) {
      const double factor = 1.0 + config_.jitter * (2.0 * jitter_draw - 1.0);
      value = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(value) * factor));
    }
    if (drop_draw < config_.drop_probability) lost = true;

    if (lost) {
      out.counts.set(e, 0);
      continue;  // present stays false
    }
    if (value >= kSaturationLimit) {
      out.counts.set(e, kSaturationLimit);
      out.saturated[i] = true;
      continue;  // pegged counter: detectably unusable, not silently wrong
    }
    out.counts.set(e, value);
    out.present[i] = true;
  }
  return out;
}

}  // namespace fsml::pmu

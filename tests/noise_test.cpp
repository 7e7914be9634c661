// Tests for the PMU measurement-degradation model: the opt-in guarantee
// (a disabled model is bit-identical to clean reads), seeded determinism on
// any host thread count, and each fault mechanism (multiplex coverage loss,
// jitter, drops, saturation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "pmu/noise.hpp"
#include "util/check.hpp"

namespace {

using namespace fsml;
using pmu::WestmereEvent;

pmu::CounterSnapshot sample_snapshot() {
  pmu::CounterSnapshot s;
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i)
    s.set(static_cast<WestmereEvent>(i), 1000 + 317 * i);
  s.set(WestmereEvent::kInstructionsRetired, 1000000);
  return s;
}

std::vector<std::uint64_t> counts_of(const pmu::DegradedSnapshot& d) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i)
    out.push_back(d.counts.get(static_cast<WestmereEvent>(i)));
  return out;
}

TEST(NoiseModel, DisabledModelIsIdentity) {
  const pmu::CounterSnapshot clean = sample_snapshot();
  const pmu::MeasurementModel model{pmu::NoiseConfig{}};
  EXPECT_EQ(model.num_groups(), 1u);
  for (const std::uint64_t id : {0u, 1u, 17u}) {
    const pmu::DegradedSnapshot d = model.measure(clean, id);
    EXPECT_EQ(d.num_missing(), 0u);
    ASSERT_TRUE(d.usable());
    for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i) {
      const auto e = static_cast<WestmereEvent>(i);
      EXPECT_EQ(d.counts.get(e), clean.get(e));
      EXPECT_FALSE(d.saturated[i]);
    }
    // The feature path is bit-identical to the clean normalization.
    const pmu::FeatureVector noisy = d.to_features();
    const pmu::FeatureVector ref = pmu::FeatureVector::normalize(clean);
    for (std::size_t i = 0; i < pmu::kNumFeatures; ++i)
      EXPECT_EQ(noisy.at(i), ref.at(i));
  }
}

TEST(NoiseModel, SameSeedIsBitExact) {
  pmu::NoiseConfig config;
  config.counters = 4;
  config.jitter = 0.05;
  config.drop_probability = 0.1;
  config.seed = 7;
  const pmu::MeasurementModel a(config), b(config);
  const pmu::CounterSnapshot clean = sample_snapshot();
  for (std::uint64_t id = 0; id < 16; ++id) {
    const pmu::DegradedSnapshot da = a.measure(clean, id);
    const pmu::DegradedSnapshot db = b.measure(clean, id);
    EXPECT_EQ(counts_of(da), counts_of(db));
    EXPECT_EQ(da.present, db.present);
    EXPECT_EQ(da.saturated, db.saturated);
  }
}

TEST(NoiseModel, DistinctIdsDrawIndependentNoise) {
  pmu::NoiseConfig config;
  config.jitter = 0.05;
  config.seed = 7;
  const pmu::MeasurementModel model(config);
  const pmu::CounterSnapshot clean = sample_snapshot();
  EXPECT_NE(counts_of(model.measure(clean, 0)),
            counts_of(model.measure(clean, 1)));
}

TEST(NoiseModel, DeterministicAcrossJobs) {
  pmu::NoiseConfig config;
  config.counters = 4;
  config.jitter = 0.1;
  config.drop_probability = 0.2;
  config.seed = 99;
  const pmu::MeasurementModel model(config);
  const pmu::CounterSnapshot clean = sample_snapshot();

  std::vector<std::uint64_t> ids(32);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const auto measure_all = [&](par::ThreadPool& pool) {
    return par::parallel_transform(pool, ids, [&](std::uint64_t id) {
      return counts_of(model.measure(clean, id));
    });
  };
  par::ThreadPool serial(0), parallel(3);
  EXPECT_EQ(measure_all(serial), measure_all(parallel));
}

TEST(NoiseModel, MultiplexingWithoutSlicesIsExact) {
  // Coverage error is a time-variation artifact: with no per-slice data the
  // time_enabled/time_running compensation recovers the exact count.
  pmu::NoiseConfig config;
  config.counters = 4;
  const pmu::MeasurementModel model(config);
  EXPECT_EQ(model.num_groups(), 4u);
  const pmu::CounterSnapshot clean = sample_snapshot();
  const pmu::DegradedSnapshot d = model.measure(clean, 3);
  EXPECT_EQ(d.num_missing(), 0u);
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i)
    EXPECT_EQ(d.counts.get(static_cast<WestmereEvent>(i)),
              clean.get(static_cast<WestmereEvent>(i)));
}

TEST(NoiseModel, UniformSlicesScaleExactly) {
  // Eight identical slices: whichever slices an event was resident in, the
  // residency scaling reconstructs the aggregate exactly.
  sim::RawCounters slice;
  for (std::size_t i = 0; i < sim::kNumRawEvents; ++i)
    slice.add(static_cast<sim::RawEvent>(i), 400);
  std::vector<sim::RawCounters> slices(8, slice);
  sim::RawCounters aggregate;
  for (const sim::RawCounters& s : slices) aggregate += s;

  pmu::NoiseConfig config;
  config.counters = 4;
  const pmu::MeasurementModel model(config);
  const pmu::DegradedSnapshot d = model.measure(aggregate, slices, 5);
  const pmu::CounterSnapshot clean = pmu::CounterSnapshot::from_raw(aggregate);
  EXPECT_EQ(d.num_missing(), 0u);
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i)
    EXPECT_EQ(d.counts.get(static_cast<WestmereEvent>(i)),
              clean.get(static_cast<WestmereEvent>(i)));
}

TEST(NoiseModel, PhaseConcentrationCausesCoverageError) {
  // All activity in slice 0 of 8: an event is resident in 2 of 8 slices, so
  // events not scheduled during slice 0 read zero and the rest overshoot.
  sim::RawCounters burst;
  for (std::size_t i = 0; i < sim::kNumRawEvents; ++i)
    burst.add(static_cast<sim::RawEvent>(i), 4000);
  std::vector<sim::RawCounters> slices(8);
  slices[0] = burst;
  sim::RawCounters aggregate = burst;

  pmu::NoiseConfig config;
  config.counters = 4;
  const pmu::MeasurementModel model(config);
  const pmu::DegradedSnapshot d = model.measure(aggregate, slices, 2);
  const pmu::CounterSnapshot clean = pmu::CounterSnapshot::from_raw(aggregate);
  bool any_differs = false;
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i)
    if (d.counts.get(static_cast<WestmereEvent>(i)) !=
        clean.get(static_cast<WestmereEvent>(i)))
      any_differs = true;
  EXPECT_TRUE(any_differs);
}

TEST(NoiseModel, JitterStaysWithinConfiguredBand) {
  pmu::NoiseConfig config;
  config.jitter = 0.05;
  config.seed = 11;
  const pmu::MeasurementModel model(config);
  const pmu::CounterSnapshot clean = sample_snapshot();
  for (std::uint64_t id = 0; id < 8; ++id) {
    const pmu::DegradedSnapshot d = model.measure(clean, id);
    for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i) {
      const auto e = static_cast<WestmereEvent>(i);
      const double v = static_cast<double>(clean.get(e));
      EXPECT_GE(static_cast<double>(d.counts.get(e)), 0.95 * v - 1.0);
      EXPECT_LE(static_cast<double>(d.counts.get(e)), 1.05 * v + 1.0);
    }
  }
}

TEST(NoiseModel, DropsMarkEventsMissing) {
  pmu::NoiseConfig config;
  config.drop_probability = 1.0;
  const pmu::MeasurementModel model(config);
  const pmu::DegradedSnapshot d = model.measure(sample_snapshot(), 0);
  EXPECT_EQ(d.num_missing(), pmu::kNumWestmereEvents);
  EXPECT_FALSE(d.usable());  // the normalizer is gone
}

TEST(NoiseModel, PartialDropsYieldNaNFeatureSlots) {
  pmu::NoiseConfig config;
  config.drop_probability = 0.3;
  config.seed = 21;
  const pmu::MeasurementModel model(config);
  const pmu::CounterSnapshot clean = sample_snapshot();
  bool checked_one = false;
  for (std::uint64_t id = 0; id < 32; ++id) {
    const pmu::DegradedSnapshot d = model.measure(clean, id);
    if (!d.usable() || d.num_missing() == 0) continue;
    checked_one = true;
    const pmu::FeatureVector fv = d.to_features();
    for (std::size_t i = 0; i < pmu::kNumFeatures; ++i)
      EXPECT_EQ(std::isnan(fv.at(i)), !d.present[i]);
  }
  EXPECT_TRUE(checked_one);
}

TEST(NoiseModel, SaturationPegsAndFlagsCounters) {
  // Every other event, the normalizer included, counts at or past the 2^48
  // counter width.
  pmu::CounterSnapshot clean = sample_snapshot();
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; i += 2)
    clean.set(static_cast<WestmereEvent>(i), pmu::kSaturationLimit + i);
  clean.set(WestmereEvent::kInstructionsRetired, pmu::kSaturationLimit);
  const pmu::MeasurementModel model{pmu::NoiseConfig{}};
  const pmu::DegradedSnapshot d = model.measure(clean, 0);
  std::size_t saturated = 0;
  for (std::size_t i = 0; i < pmu::kNumWestmereEvents; ++i) {
    const auto e = static_cast<WestmereEvent>(i);
    if (clean.get(e) >= pmu::kSaturationLimit) {
      ++saturated;
      EXPECT_TRUE(d.saturated[i]);
      EXPECT_FALSE(d.present[i]);
      EXPECT_EQ(d.counts.get(e), pmu::kSaturationLimit);
    } else {
      EXPECT_FALSE(d.saturated[i]);
      EXPECT_TRUE(d.present[i]);
      EXPECT_EQ(d.counts.get(e), clean.get(e));
    }
  }
  EXPECT_GE(saturated, pmu::kNumWestmereEvents / 2);
  EXPECT_FALSE(d.usable());  // instructions saturated too
}

TEST(NoiseModel, RejectsOutOfRangeConfig) {
  const auto model_with = [](auto mutate) {
    pmu::NoiseConfig config;
    mutate(config);
    [[maybe_unused]] const pmu::MeasurementModel model(config);
  };
  EXPECT_THROW(model_with([](pmu::NoiseConfig& c) { c.jitter = 1.5; }),
               std::runtime_error);
  EXPECT_THROW(model_with([](pmu::NoiseConfig& c) { c.jitter = std::nan(""); }),
               std::runtime_error);
  EXPECT_THROW(
      model_with([](pmu::NoiseConfig& c) { c.drop_probability = -0.1; }),
      std::runtime_error);
  EXPECT_THROW(model_with([](pmu::NoiseConfig& c) { c.counters = 17; }),
               std::runtime_error);
}

TEST(NoiseModel, UnusableSnapshotRefusesFeatures) {
  pmu::NoiseConfig config;
  config.drop_probability = 1.0;
  const pmu::MeasurementModel model(config);
  const pmu::DegradedSnapshot d = model.measure(sample_snapshot(), 0);
  EXPECT_THROW((void)d.to_features(), util::CheckFailure);
}

}  // namespace

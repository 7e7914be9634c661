// Signature tests for the mini-program suites: each mode must leave the
// hardware signature the detector relies on (bad-fs -> HITM snoop traffic,
// bad-ma -> cache/TLB pressure without HITM), runs must be deterministic,
// and the coherence/inclusion invariants must hold after every run.
#include <gtest/gtest.h>

#include <string>

#include "core/training.hpp"
#include "sim/machine_config.hpp"
#include "trainers/trainer.hpp"

namespace {

using namespace fsml;
using trainers::AccessPattern;
using trainers::Mode;
using trainers::TrainerParams;

sim::MachineConfig cfg() { return sim::MachineConfig::westmere_dp(12); }

trainers::TrainerRun run(const std::string& program, Mode mode,
                         std::uint32_t threads = 6,
                         AccessPattern pattern = AccessPattern::kRandom,
                         std::uint64_t seed = 3) {
  TrainerParams p;
  p.mode = mode;
  p.threads = threads;
  p.pattern = pattern;
  p.seed = seed;
  const auto& prog = trainers::find_program(program);
  p.size = prog.default_sizes()[0];
  if (!prog.multithreaded()) p.threads = 1;
  return trainers::run_trainer(prog, p, cfg());
}

double hitm_rate(const trainers::TrainerRun& r) {
  return r.features.get(pmu::WestmereEvent::kSnoopResponseHitM);
}

class MultithreadedPrograms : public ::testing::TestWithParam<const char*> {};

TEST_P(MultithreadedPrograms, BadFsProducesHitmGoodDoesNot) {
  const auto good = run(GetParam(), Mode::kGood);
  const auto bad = run(GetParam(), Mode::kBadFs);
  EXPECT_GT(hitm_rate(bad), 10.0 * (hitm_rate(good) + 1e-9))
      << "program " << GetParam();
  EXPECT_GT(hitm_rate(bad), 1e-3);
  EXPECT_LT(hitm_rate(good), 1e-3);
}

TEST_P(MultithreadedPrograms, BadFsIsSlowerThanGood) {
  // Dense-write kernels pay the coherence-transfer latency on the critical
  // path; sparse-write kernels (count: ~25% of iterations, pmatcompare:
  // 1 in 4) have it absorbed by the store buffer — false sharing that is
  // *detectable* (HITM signature) but not *costly*, the same phenomenon the
  // paper discusses for reverse_index/word_count (§4.1). Only dense
  // programs must slow down.
  const std::string name = GetParam();
  const bool sparse_writes = name == "count" || name == "pmatcompare";
  const auto good = run(GetParam(), Mode::kGood);
  const auto bad = run(GetParam(), Mode::kBadFs);
  if (sparse_writes) {
    EXPECT_GT(bad.raw.get(sim::RawEvent::kSnoopResponseHitM), 800u);
    EXPECT_GT(bad.result.total_cycles, good.result.total_cycles * 9 / 10);
  } else {
    EXPECT_GT(bad.result.total_cycles, good.result.total_cycles * 3 / 2)
        << "program " << GetParam();
  }
}

TEST_P(MultithreadedPrograms, DeterministicGivenSeed) {
  const auto a = run(GetParam(), Mode::kBadFs, 6, AccessPattern::kRandom, 17);
  const auto b = run(GetParam(), Mode::kBadFs, 6, AccessPattern::kRandom, 17);
  EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
  EXPECT_EQ(a.snapshot.instructions(), b.snapshot.instructions());
  for (std::size_t i = 0; i < pmu::kNumFeatures; ++i)
    EXPECT_DOUBLE_EQ(a.features.at(i), b.features.at(i));
}

INSTANTIATE_TEST_SUITE_P(AllMultithreaded, MultithreadedPrograms,
                         ::testing::Values("psums", "padding", "false1",
                                           "psumv", "pdot", "count",
                                           "pmatmult", "pmatcompare"));

class BadMaPrograms : public ::testing::TestWithParam<const char*> {};

TEST_P(BadMaPrograms, BadMaStressesCachesWithoutHitm) {
  const auto& prog = trainers::find_program(GetParam());
  TrainerParams pg;
  pg.threads = prog.multithreaded() ? 6 : 1;
  pg.size = prog.default_sizes().back();  // largest: make the contrast clear
  pg.seed = 5;
  pg.mode = Mode::kGood;
  const auto good = trainers::run_trainer(prog, pg, cfg());
  pg.mode = Mode::kBadMa;
  pg.pattern = AccessPattern::kRandom;
  const auto bad = trainers::run_trainer(prog, pg, cfg());

  const double good_repl =
      good.features.get(pmu::WestmereEvent::kL1dCacheReplacements);
  const double bad_repl =
      bad.features.get(pmu::WestmereEvent::kL1dCacheReplacements);
  EXPECT_GT(bad_repl, 2.0 * good_repl) << "program " << GetParam();
  EXPECT_LT(hitm_rate(bad), 1e-3) << "program " << GetParam();
  EXPECT_GT(bad.result.total_cycles, good.result.total_cycles);
}

TEST_P(BadMaPrograms, BadMaRaisesDtlbMissRate) {
  // Per-thread shares of the multi-threaded vector programs span too few
  // pages to overflow a 64-entry DTLB at simulation scale — which is
  // exactly why the paper added the *sequential* program set (Part B) to
  // strengthen the bad-ma training signal. Only programs whose bad-ma
  // working set clearly exceeds DTLB reach must show the TLB signature.
  const auto& prog = trainers::find_program(GetParam());
  const std::string name = GetParam();
  if (name != "seq_read" && name != "seq_write" && name != "seq_rmw" &&
      name != "pdot")
    GTEST_SKIP() << "working set spans too few pages to stress a TLB";
  TrainerParams pg;
  pg.threads = prog.multithreaded() ? 6 : 1;
  pg.size = prog.default_sizes().back();
  pg.seed = 5;
  pg.mode = Mode::kGood;
  const auto good = trainers::run_trainer(prog, pg, cfg());
  pg.mode = Mode::kBadMa;
  pg.pattern = AccessPattern::kRandom;
  const auto bad = trainers::run_trainer(prog, pg, cfg());
  const double g = good.features.get(pmu::WestmereEvent::kDtlbMisses);
  const double b = bad.features.get(pmu::WestmereEvent::kDtlbMisses);
  EXPECT_GT(b, 3.0 * (g + 1e-9)) << "program " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBadMa, BadMaPrograms,
                         ::testing::Values("psumv", "pdot", "count",
                                           "pmatmult", "pmatcompare",
                                           "seq_read", "seq_write", "seq_rmw",
                                           "seq_matmul"));

TEST(TrainerRegistry, SuitesHaveExpectedMembers) {
  EXPECT_EQ(trainers::multithreaded_set().size(), 8u);
  EXPECT_EQ(trainers::sequential_set().size(), 4u);
  EXPECT_EQ(trainers::all_programs().size(), 12u);
  EXPECT_EQ(trainers::find_program("pdot").name(), "pdot");
  EXPECT_THROW(trainers::find_program("nope"), std::exception);
}

TEST(TrainerRegistry, SequentialProgramsRejectMultithreadedParams) {
  TrainerParams p;
  p.threads = 4;
  EXPECT_THROW(
      trainers::run_trainer(trainers::find_program("seq_read"), p, cfg()),
      std::exception);
}

TEST(TrainerRegistry, ScalarProgramsRejectBadMa) {
  TrainerParams p;
  p.threads = 4;
  p.mode = Mode::kBadMa;
  EXPECT_THROW(
      trainers::run_trainer(trainers::find_program("psums"), p, cfg()),
      std::exception);
}

TEST(Traversal, BijectiveForAllPatterns) {
  for (const auto pattern : {AccessPattern::kLinear, AccessPattern::kStrided,
                             AccessPattern::kRandom}) {
    const std::uint64_t n = 1000;
    trainers::Traversal t(pattern, n, 9);
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = t.index(i);
      ASSERT_LT(idx, n);
      ASSERT_FALSE(seen[idx]) << "pattern " << static_cast<int>(pattern);
      seen[idx] = true;
    }
  }
}

TEST(Traversal, LinearIsIdentity) {
  trainers::Traversal t(AccessPattern::kLinear, 100, 1);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(t.index(i), i);
}

// ---- host-parallel collection determinism ---------------------------------
//
// The fsml::par contract: the jobs knob decides only host scheduling, never
// simulated results. Collecting the same grid with 1 and 4 host threads
// must produce bit-identical TrainingData — features, labels, provenance,
// census, and row order.

void expect_bit_identical(const fsml::core::TrainingData& a,
                          const fsml::core::TrainingData& b) {
  ASSERT_EQ(a.instances.size(), b.instances.size());
  EXPECT_EQ(a.census_a.initial_good, b.census_a.initial_good);
  EXPECT_EQ(a.census_a.initial_bad_fs, b.census_a.initial_bad_fs);
  EXPECT_EQ(a.census_a.initial_bad_ma, b.census_a.initial_bad_ma);
  EXPECT_EQ(a.census_a.removed_bad_ma, b.census_a.removed_bad_ma);
  EXPECT_EQ(a.census_b.initial_good, b.census_b.initial_good);
  EXPECT_EQ(a.census_b.initial_bad_ma, b.census_b.initial_bad_ma);
  EXPECT_EQ(a.census_b.removed_good, b.census_b.removed_good);
  EXPECT_EQ(a.census_b.removed_bad_ma, b.census_b.removed_bad_ma);
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const auto& x = a.instances[i];
    const auto& y = b.instances[i];
    EXPECT_EQ(x.program, y.program) << "row " << i;
    EXPECT_EQ(x.size, y.size) << "row " << i;
    EXPECT_EQ(x.threads, y.threads) << "row " << i;
    EXPECT_EQ(x.label, y.label) << "row " << i;
    EXPECT_EQ(x.pattern, y.pattern) << "row " << i;
    EXPECT_EQ(x.part_a, y.part_a) << "row " << i;
    EXPECT_EQ(x.seconds, y.seconds) << "row " << i;  // exact, not approx
    for (std::size_t f = 0; f < pmu::kNumFeatures; ++f)
      EXPECT_EQ(x.features.at(f), y.features.at(f))
          << "row " << i << " feature " << f;
  }
}

TEST(TrainingParallel, ParallelCollectionIsBitIdenticalToSerial) {
  fsml::core::TrainingConfig config = fsml::core::TrainingConfig::reduced();
  config.thread_counts = {3};  // trim the grid: this collects three times

  config.jobs = 1;
  const auto serial = fsml::core::collect_training_data(config);
  config.jobs = 4;
  const auto parallel_a = fsml::core::collect_training_data(config);
  const auto parallel_b = fsml::core::collect_training_data(config);

  EXPECT_GT(serial.instances.size(), 0u);
  expect_bit_identical(serial, parallel_a);   // jobs must not change results
  expect_bit_identical(parallel_a, parallel_b);  // nor make them flaky
}

}  // namespace

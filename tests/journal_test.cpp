// Durability tests: the collection journal (format, torn-tail and
// corruption recovery) and the end-to-end crash/resume contract — a sweep
// killed mid-flight by an injected abort must resume to a cache that is
// byte-identical to an uninterrupted run. Journal/Resume suites run under
// TSan in CI alongside the Supervisor tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/training.hpp"
#include "fault/fault.hpp"
#include "test_support.hpp"
#include "trainers/trainer.hpp"

namespace {

using namespace fsml;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

class JournalFile : public ::testing::Test {
 protected:
  JournalFile() : path_(unique_temp_path("journal_test.journal")) {
    std::remove(path_.c_str());
  }
  ~JournalFile() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(JournalFile, RoundTripReplaysEveryRecord) {
  {
    core::Journal journal;
    EXPECT_TRUE(journal.open_and_replay(path_, 0xABCD).empty());
    journal.append(0, "row zero");
    journal.append(7, "row seven");
    journal.append(3, "row three");
  }
  core::Journal journal;
  std::string note;
  const auto records = journal.open_and_replay(path_, 0xABCD, &note);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.at(0), "row zero");
  EXPECT_EQ(records.at(3), "row three");
  EXPECT_EQ(records.at(7), "row seven");
  EXPECT_NE(note.find("replayed 3"), std::string::npos);
}

TEST_F(JournalFile, MismatchedConfigHashStartsOver) {
  {
    core::Journal journal;
    journal.open_and_replay(path_, 0xABCD);
    journal.append(0, "stale row");
  }
  core::Journal journal;
  std::string note;
  // A journal written under a different configuration must be ignored
  // wholesale, never half-applied.
  const auto records = journal.open_and_replay(path_, 0x1234, &note);
  EXPECT_TRUE(records.empty());
  EXPECT_NE(note.find("does not match"), std::string::npos);
}

TEST_F(JournalFile, TornTailIsDiscardedAndTruncated) {
  {
    core::Journal journal;
    journal.open_and_replay(path_, 0xABCD);
    journal.append(0, "intact");
    journal.append(1, "also intact");
  }
  // Simulate a crash mid-write: a final record without its newline.
  const std::string intact = read_file(path_);
  write_file(path_, intact + "J 2 00000000 torn rec");
  {
    core::Journal journal;
    const auto records = journal.open_and_replay(path_, 0xABCD);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.at(1), "also intact");
  }
  // The torn bytes were ftruncated away, so the next append is clean.
  EXPECT_EQ(read_file(path_), intact);
}

TEST_F(JournalFile, CorruptRecordEndsTheValidPrefix) {
  {
    core::Journal journal;
    journal.open_and_replay(path_, 0xABCD);
    journal.append(0, "first");
    journal.append(1, "second");
    journal.append(2, "third");
  }
  // Flip one payload byte of record 1: its CRC no longer matches, so
  // replay keeps only the prefix before it (a torn write leaves no
  // trustworthy framing behind it).
  std::string text = read_file(path_);
  const std::size_t pos = text.find("second");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'S';
  write_file(path_, text);
  core::Journal journal;
  std::string note;
  const auto records = journal.open_and_replay(path_, 0xABCD, &note);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.at(0), "first");
  EXPECT_NE(note.find("invalid record"), std::string::npos);
}

TEST_F(JournalFile, AppendRejectsNewlines) {
  core::Journal journal;
  journal.open_and_replay(path_, 0xABCD);
  EXPECT_THROW(journal.append(0, "two\nlines"), std::exception);
}

// ---- end-to-end crash / resume ---------------------------------------------

core::TrainingConfig tiny_config() {
  core::TrainingConfig config = core::TrainingConfig::reduced();
  config.thread_counts = {3};
  return config;
}

TEST(CollectOptions, NegativeDeadlineIsRejected) {
  core::CollectOptions options;
  options.deadline = std::chrono::milliseconds(-1);
  EXPECT_THROW(core::collect_training_data(tiny_config(), nullptr, options),
               std::runtime_error);
}

std::string cell_key(const trainers::MiniProgram& program, std::uint64_t size,
                     std::uint32_t threads, trainers::Mode mode,
                     trainers::AccessPattern pattern, int rep) {
  return std::string(program.name()) + "/" + std::to_string(size) + "/" +
         std::to_string(threads) + "/" +
         std::string(trainers::to_string(mode)) + "/" +
         std::string(trainers::to_string(pattern)) + "/" + std::to_string(rep);
}

bool same_instance(const core::LabeledInstance& a,
                   const core::LabeledInstance& b) {
  if (a.program != b.program || a.size != b.size || a.threads != b.threads ||
      a.label != b.label || a.part_a != b.part_a || a.pattern != b.pattern ||
      a.seconds != b.seconds)
    return false;
  for (std::size_t f = 0; f < pmu::kNumFeatures; ++f)
    if (a.features.at(f) != b.features.at(f)) return false;
  return true;
}

class ResumeFiles : public ::testing::Test {
 protected:
  ResumeFiles()
      : cache_(unique_temp_path("resume_cache.csv")),
        clean_(unique_temp_path("resume_clean.csv")) {
    cleanup();
  }
  ~ResumeFiles() override { cleanup(); }

  void cleanup() {
    for (const std::string& p :
         {cache_, cache_ + ".journal", clean_, clean_ + ".journal"})
      std::remove(p.c_str());
  }

  std::string cache_;
  std::string clean_;
};

TEST_F(ResumeFiles, FaultedSweepQuarantinesOnlyTheFaultedCells) {
  core::TrainingConfig config = tiny_config();
  config.filter = false;  // survivors map 1:1 onto clean rows

  const auto clean_start = std::chrono::steady_clock::now();
  const core::TrainingData clean = core::collect_training_data(config);
  const auto clean_wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - clean_start);

  const trainers::MiniProgram& victim = *trainers::multithreaded_set()[0];
  const std::uint64_t size = victim.default_sizes()[0];
  fault::FaultPlan plan;
  plan.seed = 2026;
  plan.throw_rate = 0.15;  // transient: first attempt fails, retry succeeds
  plan.hang_keys = {
      cell_key(victim, size, 3, trainers::Mode::kGood,
               trainers::AccessPattern::kLinear, 0),
      cell_key(victim, size, 3, trainers::Mode::kBadFs,
               trainers::AccessPattern::kLinear, 0),
  };
  fault::FaultInjector injector(plan);

  core::CollectOptions options;
  options.injector = &injector;
  options.max_attempts = 2;
  // Only the injected hangs may reach the deadline. No legitimate cell can
  // take longer than the whole clean sweep, so twice its wall time covers
  // slow hosts and sanitizer builds; 2 s is the floor on fast ones.
  options.deadline = std::max(std::chrono::milliseconds(2000), 2 * clean_wall);
  core::CollectReport report;
  const auto faulted_start = std::chrono::steady_clock::now();
  const core::TrainingData faulted =
      core::collect_training_data(config, nullptr, options, &report);
  const auto faulted_wall = std::chrono::steady_clock::now() - faulted_start;

  // The two hang cells — and nothing else — were quarantined, each timed
  // out on both of its attempts.
  ASSERT_EQ(report.quarantined.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(report.quarantined[k].cell, plan.hang_keys[k]);
    EXPECT_TRUE(report.quarantined[k].failure.timed_out);
    EXPECT_EQ(report.quarantined[k].failure.attempts, 2);
  }
  EXPECT_GT(report.retried_attempts, 0u);  // the injected throws were retried
  // Each attempt counts its deadline from its own start, so a hang cell's
  // two attempts take at least two deadlines end to end.
  EXPECT_GE(faulted_wall, 2 * options.deadline);

  // Every surviving row is bit-identical to the clean run's row, in order.
  ASSERT_EQ(clean.instances.size(), faulted.instances.size() + 2);
  std::size_t ci = 0;
  for (const core::LabeledInstance& inst : faulted.instances) {
    while (ci < clean.instances.size() &&
           !same_instance(clean.instances[ci], inst))
      ++ci;
    ASSERT_LT(ci, clean.instances.size()) << "row not found in clean run";
    ++ci;
  }
}

TEST_F(ResumeFiles, AbortedSweepResumesToBitIdenticalCache) {
  const core::TrainingConfig config = tiny_config();

  // Reference: an uninterrupted collect_or_load.
  core::collect_or_load(config, clean_);
  const std::string clean_bytes = read_file(clean_);
  ASSERT_FALSE(clean_bytes.empty());
  EXPECT_FALSE(file_exists(clean_ + ".journal"));  // removed after commit

  // "Crash" mid-sweep: an injected NonRetryable abort after 5 completions.
  fault::FaultPlan plan;
  plan.abort_after = 5;
  fault::FaultInjector injector(plan);
  core::CollectOptions options;
  options.injector = &injector;
  EXPECT_THROW(
      core::collect_or_load(config, cache_, nullptr, options, nullptr),
      fault::InjectedAbort);
  EXPECT_FALSE(file_exists(cache_));            // no torn cache artifact
  ASSERT_TRUE(file_exists(cache_ + ".journal"));  // progress survived

  // Resume: replay the journal, run only the missing cells.
  core::CollectOptions resume;
  resume.resume = true;
  core::CollectReport report;
  core::collect_or_load(config, cache_, nullptr, resume, &report);
  EXPECT_GT(report.replayed, 0u);
  EXPECT_EQ(report.replayed + report.executed, report.total_jobs);
  EXPECT_LT(report.executed, report.total_jobs);

  EXPECT_EQ(read_file(cache_), clean_bytes);      // byte-identical cache
  EXPECT_FALSE(file_exists(cache_ + ".journal"));  // consumed on commit
}

TEST_F(ResumeFiles, QuarantinedSweepCommitsNoCacheAndResumes) {
  const core::TrainingConfig config = tiny_config();
  core::collect_or_load(config, clean_);
  const std::string clean_bytes = read_file(clean_);
  ASSERT_FALSE(clean_bytes.empty());

  // Transient throws with no retry: every afflicted cell is quarantined.
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.throw_rate = 0.3;
  fault::FaultInjector injector(plan);
  core::CollectOptions options;
  options.injector = &injector;
  options.max_attempts = 1;
  core::CollectReport faulted;
  std::ostringstream log;
  core::collect_or_load(config, cache_, &log, options, &faulted);
  ASSERT_FALSE(faulted.quarantined.empty());
  EXPECT_FALSE(file_exists(cache_));  // a partial dataset is never cached
  EXPECT_TRUE(file_exists(cache_ + ".journal"));  // completed cells survive
  EXPECT_NE(log.str().find("not written"), std::string::npos);

  // A fault-free resume runs exactly the quarantined cells and commits the
  // cache a clean sweep commits.
  core::CollectOptions resume;
  resume.resume = true;
  core::CollectReport report;
  core::collect_or_load(config, cache_, nullptr, resume, &report);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.executed, faulted.quarantined.size());
  EXPECT_EQ(report.replayed + report.executed, report.total_jobs);
  EXPECT_EQ(read_file(cache_), clean_bytes);
  EXPECT_FALSE(file_exists(cache_ + ".journal"));
}

TEST_F(ResumeFiles, CorruptedCacheIsRejectedAndRecollected) {
  const core::TrainingConfig config = tiny_config();

  // A fault plan that flips one byte of the cache as it is written.
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.corrupt_artifacts = true;
  fault::FaultInjector injector(plan);
  core::CollectOptions options;
  options.injector = &injector;
  core::collect_or_load(config, cache_, nullptr, options, nullptr);

  // The CRC32 footer (or the parse it guards) rejects the damaged file...
  std::ifstream in(cache_);
  EXPECT_THROW(core::TrainingData::load_csv(in), std::exception);

  // ...so the next collect_or_load re-collects and heals the cache.
  std::ostringstream log;
  const core::TrainingData healed = core::collect_or_load(config, cache_, &log);
  EXPECT_NE(log.str().find("re-collecting"), std::string::npos);
  std::ifstream healed_in(cache_);
  EXPECT_NO_THROW(core::TrainingData::load_csv(healed_in));
  EXPECT_FALSE(healed.instances.empty());
}

TEST_F(ResumeFiles, JournaledSweepMatchesPlainSweep) {
  const core::TrainingConfig config = tiny_config();
  const core::TrainingData plain = core::collect_training_data(config);

  core::CollectOptions options;
  options.journal_path = cache_ + ".journal";
  core::CollectReport report;
  const core::TrainingData journaled =
      core::collect_training_data(config, nullptr, options, &report);
  EXPECT_EQ(report.executed, report.total_jobs);
  ASSERT_EQ(plain.instances.size(), journaled.instances.size());
  for (std::size_t i = 0; i < plain.instances.size(); ++i)
    EXPECT_TRUE(same_instance(plain.instances[i], journaled.instances[i]))
        << i;

  // A full journal replays to the identical dataset without running a
  // single simulation.
  core::CollectOptions resume = options;
  resume.resume = true;
  core::CollectReport replay_report;
  const core::TrainingData replayed =
      core::collect_training_data(config, nullptr, resume, &replay_report);
  EXPECT_EQ(replay_report.executed, 0u);
  EXPECT_EQ(replay_report.replayed, replay_report.total_jobs);
  ASSERT_EQ(plain.instances.size(), replayed.instances.size());
  for (std::size_t i = 0; i < plain.instances.size(); ++i)
    EXPECT_TRUE(same_instance(plain.instances[i], replayed.instances[i]))
        << i;
}

}  // namespace

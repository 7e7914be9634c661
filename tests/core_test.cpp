// Tests for the core pipeline: labels, training-data collection (census,
// filtering, CSV round trip), the event-selection procedure (reduced), and
// the public detector API (training, classification, majority vote,
// persistence).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/detector.hpp"
#include "core/event_selection.hpp"
#include "core/training.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace {

using namespace fsml;
using trainers::Mode;

// A small-but-real training run shared by the tests in this file.
const core::TrainingData& reduced_data() {
  static const core::TrainingData data = [] {
    core::TrainingConfig config = core::TrainingConfig::reduced();
    return core::collect_training_data(config);
  }();
  return data;
}

TEST(Labels, RoundTrip) {
  for (const Mode m : {Mode::kGood, Mode::kBadFs, Mode::kBadMa})
    EXPECT_EQ(core::mode_of(core::label_of(m)), m);
  EXPECT_EQ(core::class_names().size(), 3u);
}

TEST(Training, CensusAccountsForEveryInstance) {
  const core::TrainingData& data = reduced_data();
  const std::size_t expected = data.census_a.final_total() +
                               data.census_b.final_total();
  EXPECT_EQ(data.instances.size(), expected);
  EXPECT_GT(data.census_a.initial_good, 0u);
  EXPECT_GT(data.census_a.initial_bad_fs, 0u);
  EXPECT_GT(data.census_b.initial_bad_ma, 0u);
  EXPECT_EQ(data.census_b.initial_bad_fs, 0u);  // no sequential bad-fs
}

TEST(Training, AllThreeClassesPresent) {
  const auto counts = reduced_data().to_dataset().class_counts();
  EXPECT_GT(counts[core::kGood], 0u);
  EXPECT_GT(counts[core::kBadFs], 0u);
  EXPECT_GT(counts[core::kBadMa], 0u);
}

TEST(Training, InstancesCarryProvenance) {
  for (const core::LabeledInstance& inst : reduced_data().instances) {
    EXPECT_FALSE(inst.program.empty());
    EXPECT_GT(inst.size, 0u);
    EXPECT_GE(inst.threads, 1u);
    EXPECT_GT(inst.seconds, 0.0);
  }
}

TEST(Training, PartBIsSequentialOnly) {
  for (const core::LabeledInstance& inst : reduced_data().instances) {
    if (!inst.part_a) {
      EXPECT_EQ(inst.threads, 1u);
    }
  }
}

TEST(Training, CsvRoundTripPreservesEverything) {
  const core::TrainingData& data = reduced_data();
  std::stringstream ss;
  data.save_csv(ss);
  const core::TrainingData back = core::TrainingData::load_csv(ss);
  ASSERT_EQ(back.instances.size(), data.instances.size());
  EXPECT_EQ(back.census_a.initial_good, data.census_a.initial_good);
  EXPECT_EQ(back.census_b.removed_good, data.census_b.removed_good);
  for (std::size_t i = 0; i < data.instances.size(); ++i) {
    const auto& a = data.instances[i];
    const auto& b = back.instances[i];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.part_a, b.part_a);
    EXPECT_DOUBLE_EQ(a.hitm_remote_ratio, b.hitm_remote_ratio);
    EXPECT_DOUBLE_EQ(a.dram_remote_ratio, b.dram_remote_ratio);
    for (std::size_t f = 0; f < pmu::kNumFeatures; ++f)
      EXPECT_DOUBLE_EQ(a.features.at(f), b.features.at(f));
  }
}

TEST(TrainingBitIdentity, ReducedGridCrcPinned) {
  // The reduced grid at seed 42 serializes to these exact bytes, the same
  // pin perfbench's self-test checks. A simulator change that moves one
  // counter, cycle or feature anywhere in the grid changes the CRC.
  const core::TrainingData& data = reduced_data();
  ASSERT_EQ(data.instances.size(), 210u);
  std::stringstream csv;
  data.save_csv(csv);
  EXPECT_EQ(util::crc32(csv.str()), 0x0af63b50u);
}

TEST(Training, LoadCsvRejectsGarbage) {
  std::stringstream ss("not a training file");
  EXPECT_THROW(core::TrainingData::load_csv(ss), std::exception);
}

TEST(Training, LoadCsvRejectsRowBoundaryTruncation) {
  // A cache cut at a row boundary parses line-by-line; the census header
  // must still expose the missing rows. Drop the CRC footer too — a
  // truncated legacy cache (no footer) must be rejected by the census
  // alone.
  std::stringstream full;
  reduced_data().save_csv(full);
  std::string text = full.str();
  text.erase(text.rfind('\n', text.size() - 2) + 1);  // drop the footer
  text.erase(text.rfind('\n', text.size() - 2) + 1);  // drop the last row
  std::stringstream truncated(text);
  EXPECT_THROW(core::TrainingData::load_csv(truncated), std::exception);
}

TEST(Training, LoadCsvRejectsFlippedByte) {
  // In-row corruption keeps the row count intact; only the CRC32 footer
  // can catch it.
  std::stringstream full;
  reduced_data().save_csv(full);
  std::string text = full.str();
  const std::size_t pos = text.find(",A,");  // the part column
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = 'B';  // flip one byte inside a row
  std::stringstream corrupt(text);
  EXPECT_THROW(core::TrainingData::load_csv(corrupt), std::exception);
}

TEST(Training, SaveCsvRoundTripsThroughFooter) {
  const core::TrainingData data = reduced_data();
  std::stringstream ss;
  data.save_csv(ss);
  const core::TrainingData back = core::TrainingData::load_csv(ss);
  ASSERT_EQ(back.instances.size(), data.instances.size());
  std::stringstream again;
  back.save_csv(again);
  EXPECT_EQ(ss.str(), again.str());  // byte-identical re-serialization
}

// ---- collect_or_load cache behaviour --------------------------------------

class TrainingCache : public ::testing::Test {
 protected:
  TrainingCache() : path_(unique_temp_path("cache_test.csv")) {
    std::remove(path_.c_str());
    config_ = core::TrainingConfig::reduced();
    config_.thread_counts = {3};  // smallest useful grid: re-collected twice
  }
  ~TrainingCache() override { std::remove(path_.c_str()); }

  void expect_same(const core::TrainingData& a, const core::TrainingData& b) {
    ASSERT_EQ(a.instances.size(), b.instances.size());
    EXPECT_EQ(a.census_a.initial_good, b.census_a.initial_good);
    EXPECT_EQ(a.census_b.initial_bad_ma, b.census_b.initial_bad_ma);
    for (std::size_t i = 0; i < a.instances.size(); ++i) {
      EXPECT_EQ(a.instances[i].program, b.instances[i].program);
      EXPECT_EQ(a.instances[i].label, b.instances[i].label);
      EXPECT_EQ(a.instances[i].threads, b.instances[i].threads);
      for (std::size_t f = 0; f < pmu::kNumFeatures; ++f)
        EXPECT_DOUBLE_EQ(a.instances[i].features.at(f),
                         b.instances[i].features.at(f));
    }
  }

  std::string file_contents() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void write_file(const std::string& text) const {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }

  std::string path_;
  core::TrainingConfig config_;
};

TEST_F(TrainingCache, SaveThenLoadYieldsIdenticalDataset) {
  const auto collected = core::collect_or_load(config_, path_);  // collects
  const auto loaded = core::collect_or_load(config_, path_);     // loads
  expect_same(collected, loaded);
}

TEST_F(TrainingCache, CorruptCacheTriggersCleanRecollection) {
  const auto collected = core::collect_or_load(config_, path_);
  const std::string good_file = file_contents();

  // Truncated mid-line: parsing fails partway through a row.
  write_file(good_file.substr(0, good_file.size() / 2));
  const auto after_truncation = core::collect_or_load(config_, path_);
  expect_same(collected, after_truncation);
  EXPECT_EQ(file_contents(), good_file);  // cache was rewritten, not left bad

  // Outright garbage.
  write_file("these are not the rows you are looking for\n");
  const auto after_garbage = core::collect_or_load(config_, path_);
  expect_same(collected, after_garbage);
  EXPECT_EQ(file_contents(), good_file);
}

TEST(Training, DeterministicForSeed) {
  core::TrainingConfig config = core::TrainingConfig::reduced();
  const auto a = core::collect_training_data(config);
  const auto b = core::collect_training_data(config);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i)
    EXPECT_DOUBLE_EQ(a.instances[i].seconds, b.instances[i].seconds);
}

TEST(Training, FilterCanBeDisabled) {
  core::TrainingConfig config = core::TrainingConfig::reduced();
  config.filter = false;
  const auto data = core::collect_training_data(config);
  EXPECT_EQ(data.census_a.removed_bad_ma, 0u);
  EXPECT_EQ(data.census_b.removed_good, 0u);
}

// ---- detector ----------------------------------------------------------------

TEST(Detector, TrainsAndSeparatesTrainingData) {
  core::FalseSharingDetector detector;
  detector.train(reduced_data());
  EXPECT_TRUE(detector.trained());
  std::size_t correct = 0;
  for (const core::LabeledInstance& inst : reduced_data().instances)
    if (core::label_of(detector.classify(inst.features)) == inst.label)
      ++correct;
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(reduced_data().instances.size()),
            0.97);
}

TEST(Detector, UntrainedThrows) {
  core::FalseSharingDetector detector;
  EXPECT_THROW(detector.classify(pmu::FeatureVector{}), util::CheckFailure);
}

TEST(Detector, MajorityVote) {
  using V = std::vector<Mode>;
  EXPECT_EQ(core::FalseSharingDetector::majority(
                V{Mode::kGood, Mode::kGood, Mode::kBadFs}),
            Mode::kGood);
  EXPECT_EQ(core::FalseSharingDetector::majority(
                V{Mode::kBadFs, Mode::kBadFs, Mode::kGood}),
            Mode::kBadFs);
  // Plurality (the paper's streamcluster: 15 fs / 11 good / 10 ma).
  V plurality;
  plurality.insert(plurality.end(), 15, Mode::kBadFs);
  plurality.insert(plurality.end(), 11, Mode::kGood);
  plurality.insert(plurality.end(), 10, Mode::kBadMa);
  EXPECT_EQ(core::FalseSharingDetector::majority(plurality), Mode::kBadFs);
  // Ties resolve to the worse verdict.
  EXPECT_EQ(core::FalseSharingDetector::majority(
                V{Mode::kGood, Mode::kBadFs}),
            Mode::kBadFs);
  EXPECT_EQ(core::FalseSharingDetector::majority(
                V{Mode::kGood, Mode::kBadMa}),
            Mode::kBadMa);
  EXPECT_THROW(core::FalseSharingDetector::majority(V{}),
               util::CheckFailure);
}

TEST(Detector, SaveLoadRoundTrip) {
  core::FalseSharingDetector detector;
  detector.train(reduced_data());
  std::stringstream ss;
  detector.save(ss);
  const core::FalseSharingDetector loaded =
      core::FalseSharingDetector::load(ss);
  for (std::size_t i = 0; i < std::min<std::size_t>(
                              reduced_data().instances.size(), 50);
       ++i) {
    const auto& inst = reduced_data().instances[i];
    EXPECT_EQ(loaded.classify(inst.features),
              detector.classify(inst.features));
  }
}

TEST(Detector, TrainAndLoadRejectAForeignSchema) {
  // Right arity, other names: a renamed feature or a renamed class is a
  // different detector, refused by train() and load() as by load_file().
  std::vector<std::string> features = pmu::FeatureVector::feature_names();
  features[0] = "renamed";
  std::vector<std::string> classes = core::class_names();
  classes[2] = "other";
  for (const auto& [attributes, labels] :
       {std::pair{features, core::class_names()},
        std::pair{pmu::FeatureVector::feature_names(), classes}}) {
    ml::Dataset foreign(attributes, labels);
    for (int rep = 0; rep < 4; ++rep)
      for (int y = 0; y < 3; ++y) {
        std::vector<double> x(pmu::kNumFeatures, 0.25 * rep);
        x[0] = static_cast<double>(y);
        foreign.add(std::move(x), y);
      }
    core::FalseSharingDetector detector;
    EXPECT_THROW(detector.train(foreign), std::runtime_error);
    EXPECT_FALSE(detector.trained());

    ml::C45Tree tree;
    tree.train(foreign);
    std::stringstream ss;
    tree.save(ss);
    EXPECT_THROW(core::FalseSharingDetector::load(ss), std::runtime_error);
  }
}

TEST(Detector, RootSplitsOnHitm) {
  core::FalseSharingDetector detector;
  detector.train(reduced_data());
  const auto* root = detector.model().root();
  ASSERT_NE(root, nullptr);
  ASSERT_FALSE(root->is_leaf);
  EXPECT_EQ(static_cast<pmu::WestmereEvent>(root->attribute),
            pmu::WestmereEvent::kSnoopResponseHitM);
}

// ---- event selection ------------------------------------------------------------

TEST(EventSelection, FindsHitmAsFsDiscriminator) {
  core::EventSelectionConfig config;
  config.thread_counts = {3, 6};  // reduced for test speed
  const auto result = core::select_events(config);
  const auto& fs = result.fs_discriminators;
  EXPECT_NE(std::find(fs.begin(), fs.end(),
                      sim::RawEvent::kSnoopResponseHitM),
            fs.end())
      << "HITM must discriminate good vs bad-fs";
  EXPECT_FALSE(result.ma_discriminators.empty());
  // Steps are disjoint.
  for (const sim::RawEvent e : result.ma_discriminators)
    EXPECT_EQ(std::find(fs.begin(), fs.end(), e), fs.end());
  // Selected = union, stats cover all candidates.
  EXPECT_EQ(result.selected.size(),
            fs.size() + result.ma_discriminators.size());
}

TEST(EventSelection, StricterRatioSelectsFewer) {
  core::EventSelectionConfig loose;
  loose.thread_counts = {3};
  core::EventSelectionConfig strict = loose;
  strict.ratio_threshold = 50.0;
  const auto a = core::select_events(loose);
  const auto b = core::select_events(strict);
  EXPECT_LE(b.selected.size(), a.selected.size());
}

}  // namespace

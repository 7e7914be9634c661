// Unit and property tests for the ML library: information-theory math,
// C4.5 construction/pruning/serialization, companion classifiers, the
// evaluation framework and dataset IO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "ml/c45.hpp"
#include "ml/eval.hpp"
#include "ml/forest.hpp"
#include "ml/io.hpp"
#include "ml/knn.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/simple.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using ml::Dataset;

// ---- helpers ---------------------------------------------------------------

Dataset two_class_schema() {
  return Dataset({"a", "b"}, {"neg", "pos"});
}

/// Linearly separable blobs: class = (a > 5).
Dataset separable(std::size_t n_per_class, util::Rng& rng) {
  Dataset d = two_class_schema();
  for (std::size_t i = 0; i < n_per_class; ++i) {
    d.add({2.0 + rng.next_double(), rng.next_double() * 10}, 0);
    d.add({8.0 + rng.next_double(), rng.next_double() * 10}, 1);
  }
  return d;
}

/// Three-class data mimicking the paper's feature shape: class decided by
/// two thresholded attributes plus noise dimensions.
Dataset three_class(std::size_t n_per_class, util::Rng& rng,
                    double label_noise = 0.0) {
  Dataset d({"hitm", "repl", "noise1", "noise2"},
            {"good", "bad-fs", "bad-ma"});
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double n1 = rng.next_double(), n2 = rng.next_double();
    int y0 = 0;
    d.add({rng.next_double() * 1e-4, rng.next_double() * 0.05, n1, n2}, y0);
    int y1 = 1;
    d.add({0.01 + rng.next_double() * 0.1, rng.next_double() * 0.2, n1, n2},
          y1);
    int y2 = 2;
    d.add({rng.next_double() * 1e-4, 0.5 + rng.next_double() * 0.5, n1, n2},
          y2);
    if (label_noise > 0 && rng.next_bool(label_noise)) {
      // mislabel one instance per draw
    }
  }
  return d;
}

// ---- entropy / pruning math ------------------------------------------------

TEST(Entropy, UniformIsLog2K) {
  const double counts[] = {10, 10, 10, 10};
  EXPECT_NEAR(ml::entropy(counts), 2.0, 1e-12);
}

TEST(Entropy, PureIsZero) {
  const double counts[] = {42, 0, 0};
  EXPECT_DOUBLE_EQ(ml::entropy(counts), 0.0);
}

TEST(Entropy, BinaryHalfIsOne) {
  const double counts[] = {7, 7};
  EXPECT_NEAR(ml::entropy(counts), 1.0, 1e-12);
}

TEST(Entropy, EmptyIsZero) {
  const double counts[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(ml::entropy(counts), 0.0);
}

TEST(AddedErrors, ZeroErrorsStillPessimistic) {
  // U_CF(0, n) > 0: a pure leaf still gets charged some future error.
  const double add = ml::added_errors(10, 0, 0.25);
  EXPECT_GT(add, 0.0);
  EXPECT_LT(add, 10.0);
}

TEST(AddedErrors, MonotonicInConfidence) {
  // Smaller confidence factor => more pessimism => more added errors.
  EXPECT_GT(ml::added_errors(20, 3, 0.10), ml::added_errors(20, 3, 0.50));
}

TEST(AddedErrors, DecreasesWithMoreData) {
  // Same error *rate*, more data => proportionally fewer added errors.
  const double small = ml::added_errors(10, 2, 0.25) / 10;
  const double large = ml::added_errors(1000, 200, 0.25) / 1000;
  EXPECT_GT(small, large);
}

TEST(AddedErrors, NearTotalErrorClamps) {
  EXPECT_DOUBLE_EQ(ml::added_errors(10, 10, 0.25), 0.0);
}

// ---- C4.5 ------------------------------------------------------------------

TEST(C45, LearnsSeparableDataPerfectly) {
  util::Rng rng(1);
  const Dataset d = separable(50, rng);
  ml::C45Tree tree;
  tree.train(d);
  for (const auto& inst : d.instances())
    EXPECT_EQ(tree.predict(inst.x), inst.y);
  // One threshold on attribute 'a' suffices.
  EXPECT_EQ(tree.num_leaves(), 2u);
  EXPECT_EQ(tree.num_nodes(), 3u);
  ASSERT_EQ(tree.used_attributes().size(), 1u);
  EXPECT_EQ(tree.used_attributes()[0], 0u);
  const auto* root = tree.root();
  ASSERT_FALSE(root->is_leaf);
  EXPECT_GT(root->threshold, 3.0);
  EXPECT_LT(root->threshold, 8.0);
}

TEST(C45, ThreeClassDataUsesSignalAttributesOnly) {
  util::Rng rng(2);
  const Dataset d = three_class(60, rng);
  ml::C45Tree tree;
  tree.train(d);
  EXPECT_GT(ml::evaluate_on(tree, d).accuracy(), 0.98);
  for (const std::size_t a : tree.used_attributes())
    EXPECT_LT(a, 2u) << "tree split on a noise attribute";
}

TEST(C45, PureDatasetIsSingleLeaf) {
  Dataset d = two_class_schema();
  for (int i = 0; i < 10; ++i) d.add({1.0 * i, 2.0}, 0);
  ml::C45Tree tree;
  tree.train(d);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{99.0, 99.0}), 0);
  // A lone leaf needs no attribute, so an all-NaN vector still gets its
  // training distribution.
  const std::vector<double> all_nan = {ml::kMissingValue, ml::kMissingValue};
  EXPECT_EQ(tree.predict(all_nan), 0);
  EXPECT_EQ(tree.distribution(all_nan), (std::vector<double>{1.0, 0.0}));
}

TEST(C45, MinLeafRespected) {
  util::Rng rng(3);
  Dataset d = separable(50, rng);
  // One contradictory point cannot justify a split under min_leaf = 25.
  ml::C45Params params;
  params.min_leaf_instances = 60;
  ml::C45Tree tree(params);
  tree.train(d);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(C45, PruningShrinksNoisyTree) {
  util::Rng rng(4);
  // Noisy labels: flip 10% of classes.
  Dataset d = two_class_schema();
  for (int i = 0; i < 400; ++i) {
    const bool pos = rng.next_bool(0.5);
    int y = pos ? 1 : 0;
    if (rng.next_bool(0.10)) y = 1 - y;
    d.add({(pos ? 8.0 : 2.0) + rng.next_double(), rng.next_double() * 10}, y);
  }
  // Disable the MDL correction and the minimum-leaf guard so the unpruned
  // tree actually overfits the label noise; pruning must then shrink it.
  ml::C45Params overfit;
  overfit.prune = false;
  overfit.mdl_correction = false;
  overfit.min_leaf_instances = 1;
  ml::C45Tree t_unpruned(overfit);
  t_unpruned.train(d);
  ml::C45Params pruned = overfit;
  pruned.prune = true;
  ml::C45Tree t_pruned(pruned);
  t_pruned.train(d);
  EXPECT_LT(t_pruned.num_nodes(), t_unpruned.num_nodes());
  EXPECT_GE(ml::evaluate_on(t_pruned, d).accuracy(), 0.85);
}

TEST(C45, DistributionSumsToOne) {
  util::Rng rng(5);
  const Dataset d = three_class(40, rng);
  ml::C45Tree tree;
  tree.train(d);
  const auto dist = tree.distribution(d.at(7).x);
  ASSERT_EQ(dist.size(), 3u);
  double sum = 0;
  for (const double p : dist) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(C45, SaveLoadRoundTripPreservesPredictions) {
  util::Rng rng(6);
  const Dataset d = three_class(50, rng);
  ml::C45Tree tree;
  tree.train(d);
  std::stringstream ss;
  tree.save(ss);
  const ml::C45Tree loaded = ml::C45Tree::load(ss);
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());
  for (const auto& inst : d.instances())
    EXPECT_EQ(loaded.predict(inst.x), tree.predict(inst.x));
}

TEST(C45, LoadRejectsGarbage) {
  std::stringstream ss("not a model");
  EXPECT_THROW(ml::C45Tree::load(ss), std::exception);
}

TEST(C45, LoadRejectsStructurallyInvalidTrees) {
  // Each payload parses, but names an attribute, class or depth its own
  // header rules out. Loaded, the first would read x[99] and the second
  // would vote for a class that has no slot.
  const std::string header =
      "fsml-c45 v1\nclasses 3 good bad-fs bad-ma\nattributes 2 a b\n";
  const auto leaf = [](int cls) {  // 4 instances of `cls`, 1 of each other
    std::string line = "L " + std::to_string(cls) + " 3";
    for (int c = 0; c < 3; ++c) line += c == cls ? " 4" : " 1";
    return line + " 2\n";
  };
  std::string too_deep;  // a left spine 200 splits deep; kMaxDepth is 64
  for (int i = 0; i < 200; ++i) too_deep += "N 0 0.5\n";
  for (int i = 0; i <= 200; ++i) too_deep += leaf(0);

  const std::vector<std::pair<const char*, std::string>> invalid = {
      {"attribute past the schema", "N 99 0.5\n" + leaf(0) + leaf(1)},
      {"leaf class past the class count", "L 7 3 4 1 1 2\n"},
      {"leaf counts of the wrong arity",
       "N 0 0.5\n" + leaf(0) + "L 1 2 1 4 1\n"},
      {"depth past max_depth", too_deep},
  };
  for (const auto& [fault, body] : invalid) {
    std::istringstream raw(header + body);
    EXPECT_THROW(ml::C45Tree::load(raw), util::CheckFailure) << fault;
    std::istringstream legacy(header + body);
    EXPECT_THROW(ml::load_model(legacy), util::CheckFailure) << fault;
  }

  // The same framing with every field in range loads and predicts.
  std::istringstream valid(header + "N 1 0.5\n" + leaf(0) + leaf(1));
  const ml::C45Tree tree = ml::C45Tree::load(valid);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0, 0.9}), 1);
}

TEST(C45, SingleLeafTreeSurvivesSaveLoad) {
  // The smallest tree load() accepts: one leaf at depth 0, which answers
  // every lookup, an all-NaN vector included.
  Dataset d({"a"}, {"only", "never"});
  for (int i = 0; i < 8; ++i) d.add({static_cast<double>(i)}, 0);
  ml::C45Tree tree;
  tree.train(d);
  std::stringstream ss;
  tree.save(ss);
  const ml::C45Tree loaded = ml::C45Tree::load(ss);
  EXPECT_EQ(loaded.num_nodes(), 1u);
  EXPECT_EQ(loaded.num_leaves(), 1u);
  const std::vector<double> nan = {ml::kMissingValue};
  EXPECT_EQ(loaded.predict(std::vector<double>{3.0}), 0);
  EXPECT_EQ(loaded.predict(nan), 0);
  EXPECT_EQ(loaded.distribution(nan), tree.distribution(nan));
}

TEST(C45, UntrainedPredictThrows) {
  ml::C45Tree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::exception);
}

TEST(C45, ShortFeatureVectorIsRejected) {
  util::Rng rng(7);
  ml::C45Tree tree;
  tree.train(three_class(40, rng));
  const std::vector<double> too_short(tree.attribute_names().size() - 1, 0.0);
  EXPECT_THROW(tree.predict(too_short), util::CheckFailure);
  EXPECT_THROW(tree.distribution(too_short), util::CheckFailure);
}

TEST(C45, DescribeMentionsLeafAndNodeCounts) {
  util::Rng rng(7);
  const Dataset d = separable(30, rng);
  ml::C45Tree tree;
  tree.train(d);
  const std::string text = tree.describe();
  EXPECT_NE(text.find("Number of Leaves"), std::string::npos);
  EXPECT_NE(text.find("Size of the tree"), std::string::npos);
}

// ---- C4.5 missing values ----------------------------------------------------

/// `clean` with one attribute set missing in about `rate` of its rows.
Dataset with_missing_values(const Dataset& clean, double rate,
                            util::Rng& rng) {
  Dataset d(clean.attribute_names(), clean.class_names());
  for (const auto& inst : clean.instances()) {
    std::vector<double> x = inst.x;
    if (rng.next_bool(rate)) x[rng.next_below(x.size())] = ml::kMissingValue;
    d.add(std::move(x), inst.y);
  }
  return d;
}

/// Fuzz vector number `i`: a row of `d` rescaled by 0.5-1.5; every fourth
/// has one NaN slot.
std::vector<double> fuzz_vector(const Dataset& d, int i, util::Rng& probe) {
  std::vector<double> x = d.at(probe.next_below(d.size())).x;
  for (double& v : x) v *= 0.5 + probe.next_double();
  if (i % 4 == 0) x[probe.next_below(x.size())] = ml::kMissingValue;
  return x;
}

/// `a` and `b` answer 400 fuzz vectors drawn from `d` with the same bits.
void expect_same_answers(const ml::C45Tree& a, const ml::C45Tree& b,
                         const Dataset& d, std::uint64_t seed) {
  util::Rng probe(seed);
  for (int i = 0; i < 400; ++i) {
    const std::vector<double> x = fuzz_vector(d, i, probe);
    const std::vector<double> da = a.distribution(x);
    const std::vector<double> db = b.distribution(x);
    ASSERT_EQ(da.size(), db.size());
    ASSERT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)),
              0)
        << "vector " << i;
    ASSERT_EQ(b.predict(x), a.predict(x)) << "vector " << i;
  }
}

TEST(C45Missing, LearnsDespiteMissingTrainingValues) {
  util::Rng rng(18);
  Dataset d = separable(40, rng);
  // A batch of instances whose signal attribute was not measured: the
  // fractional-instance machinery must absorb them without losing the split.
  for (int i = 0; i < 10; ++i) {
    d.add({ml::kMissingValue, rng.next_double() * 10}, i % 2);
  }
  EXPECT_EQ(d.num_incomplete(), 10u);
  ml::C45Tree tree;
  tree.train(d);
  util::Rng probe(19);
  const Dataset clean = separable(20, probe);
  for (const auto& inst : clean.instances())
    EXPECT_EQ(tree.predict(inst.x), inst.y);
}

TEST(C45Missing, PredictWithNaNCombinesBranchDistributions) {
  util::Rng rng(20);
  const Dataset d = separable(50, rng);
  ml::C45Tree tree;
  tree.train(d);
  ASSERT_TRUE(tree.handles_missing());
  // The split attribute is missing: the prediction blends both branches by
  // their training weight — here a 50/50 class balance.
  const std::vector<double> x = {ml::kMissingValue, 5.0};
  const auto dist = tree.distribution(x);
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-9);
  EXPECT_NEAR(dist[0], 0.5, 0.05);
  const int predicted = tree.predict(x);
  EXPECT_TRUE(predicted == 0 || predicted == 1);
  // predict() must agree with the argmax of distribution().
  EXPECT_EQ(predicted, dist[0] >= dist[1] ? 0 : 1);
}

TEST(C45Missing, AllMissingAttributeIsNeverSplit) {
  Dataset d({"dead", "sig"}, {"neg", "pos"});
  util::Rng rng(21);
  for (int i = 0; i < 30; ++i) {
    d.add({ml::kMissingValue, 2.0 + rng.next_double()}, 0);
    d.add({ml::kMissingValue, 8.0 + rng.next_double()}, 1);
  }
  ml::C45Tree tree;
  tree.train(d);
  for (const std::size_t a : tree.used_attributes()) EXPECT_EQ(a, 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{ml::kMissingValue, 8.5}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{ml::kMissingValue, 2.5}), 0);
}

TEST(C45Missing, WeightedInstanceEqualsDuplicatedInstance) {
  // Weight-2 instances must train the same tree as the instance repeated
  // twice at weight 1 — the weighted sums are identical doubles.
  util::Rng rng(22);
  Dataset twice = two_class_schema();
  Dataset weighted = two_class_schema();
  for (int i = 0; i < 30; ++i) {
    const double a = (i % 2 ? 8.0 : 2.0) + rng.next_double();
    const double b = rng.next_double() * 10;
    twice.add({a, b}, i % 2);
    twice.add({a, b}, i % 2);
    weighted.add({a, b}, i % 2, 2.0);
  }
  ml::C45Tree t_twice, t_weighted;
  t_twice.train(twice);
  t_weighted.train(weighted);
  EXPECT_EQ(t_twice.num_nodes(), t_weighted.num_nodes());
  for (const auto& inst : twice.instances()) {
    EXPECT_EQ(t_twice.predict(inst.x), t_weighted.predict(inst.x));
    const auto da = t_twice.distribution(inst.x);
    const auto db = t_weighted.distribution(inst.x);
    for (std::size_t c = 0; c < da.size(); ++c)
      EXPECT_DOUBLE_EQ(da[c], db[c]);
  }
}

TEST(C45Missing, SaveLoadRoundTripKeepsMissingValuePredictions) {
  // Training on 10% missing values leaves fractional leaf counts; save()
  // must write them so they reload to the same bits, and the reloaded tree
  // must then answer every vector — NaN slots included — bit-identically.
  util::Rng rng(23);
  const Dataset d = with_missing_values(three_class(70, rng), 0.1, rng);
  ASSERT_GT(d.num_incomplete(), 0u);
  ml::C45Tree tree;
  tree.train(d);
  std::stringstream ss;
  tree.save(ss);
  const ml::C45Tree loaded = ml::C45Tree::load(ss);
  ASSERT_EQ(loaded.num_nodes(), tree.num_nodes());
  expect_same_answers(tree, loaded, d, 24);
}

TEST(C45Missing, CopyAndPredictAreBitIdentical) {
  // A quarter of the training rows miss a value, so leaf counts are
  // fractional. A copied tree must answer with the same bits.
  util::Rng rng(15);
  const Dataset d = with_missing_values(three_class(80, rng), 0.25, rng);
  ml::C45Tree tree;
  tree.train(d);
  const ml::C45Tree copy(tree);
  expect_same_answers(tree, copy, d, 105);
}

TEST(Dataset, TracksMissingAndValidatesWeights) {
  Dataset d = two_class_schema();
  d.add({1.0, 2.0}, 0);
  d.add({ml::kMissingValue, 2.0}, 1);
  EXPECT_EQ(d.num_incomplete(), 1u);
  EXPECT_TRUE(ml::is_missing(d.at(1).x[0]));
  EXPECT_DOUBLE_EQ(d.at(0).weight, 1.0);
  EXPECT_THROW(d.add({1.0, 1.0}, 0, 0.0), std::exception);
  EXPECT_THROW(d.add({1.0, 1.0}, 0, -2.0), std::exception);
}

TEST(Classifier, OnlyC45AdvertisesMissingSupport) {
  EXPECT_TRUE(ml::C45Tree().handles_missing());
  EXPECT_FALSE(ml::NaiveBayes().handles_missing());
  EXPECT_FALSE(ml::KnnClassifier(3).handles_missing());
  EXPECT_FALSE(ml::ZeroR().handles_missing());
}

// ---- companion classifiers --------------------------------------------------

template <typename C>
void expect_learns_separable(C&& c, double min_acc = 0.97) {
  util::Rng rng(8);
  const Dataset d = separable(60, rng);
  c.train(d);
  EXPECT_GE(ml::evaluate_on(c, d).accuracy(), min_acc) << c.name();
}

TEST(NaiveBayes, LearnsSeparable) { expect_learns_separable(ml::NaiveBayes()); }
TEST(Knn, LearnsSeparable) { expect_learns_separable(ml::KnnClassifier(3)); }
TEST(Stump, LearnsSeparable) { expect_learns_separable(ml::DecisionStump()); }
TEST(Forest, LearnsSeparable) { expect_learns_separable(ml::RandomForest()); }

TEST(ZeroR, PredictsMajority) {
  Dataset d = two_class_schema();
  for (int i = 0; i < 3; ++i) d.add({1, 1}, 0);
  for (int i = 0; i < 7; ++i) d.add({2, 2}, 1);
  ml::ZeroR z;
  z.train(d);
  EXPECT_EQ(z.predict(std::vector<double>{0.0, 0.0}), 1);
}

TEST(Stump, FindsSignalAttribute) {
  util::Rng rng(9);
  const Dataset d = separable(40, rng);
  ml::DecisionStump s;
  s.train(d);
  EXPECT_EQ(s.attribute(), 0u);
  EXPECT_GT(s.threshold(), 3.0);
  EXPECT_LT(s.threshold(), 8.0);
}

TEST(NaiveBayes, DistributionNormalized) {
  util::Rng rng(10);
  const Dataset d = three_class(30, rng);
  ml::NaiveBayes nb;
  nb.train(d);
  const auto dist = nb.distribution(d.at(0).x);
  double sum = 0;
  for (const double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Knn, ConstantAttributeDoesNotPoisonDistance) {
  Dataset d({"sig", "const"}, {"neg", "pos"});
  for (int i = 0; i < 20; ++i) {
    d.add({static_cast<double>(i % 2 ? 10 : 0), 5.0}, i % 2);
  }
  ml::KnnClassifier knn(1);
  knn.train(d);
  EXPECT_EQ(knn.predict(std::vector<double>{9.5, 5.0}), 1);
  EXPECT_EQ(knn.predict(std::vector<double>{0.5, 5.0}), 0);
}

// ---- dataset / folds ---------------------------------------------------------

TEST(Dataset, ClassCountsAndMajority) {
  Dataset d = two_class_schema();
  d.add({1, 1}, 0);
  d.add({1, 1}, 1);
  d.add({1, 1}, 1);
  const auto counts = d.class_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(d.majority_class(), 1);
}

TEST(Dataset, StratifiedFoldsPreserveClassBalance) {
  util::Rng rng(11);
  Dataset d = two_class_schema();
  for (int i = 0; i < 40; ++i) d.add({1.0 * i, 0}, 0);
  for (int i = 0; i < 20; ++i) d.add({1.0 * i, 1}, 1);
  const auto folds = d.stratified_folds(10, rng);
  ASSERT_EQ(folds.size(), 10u);
  std::size_t total = 0;
  for (const auto& fold : folds) {
    std::size_t c0 = 0, c1 = 0;
    for (const std::size_t i : fold)
      (d.at(i).y == 0 ? c0 : c1)++;
    EXPECT_EQ(c0, 4u);
    EXPECT_EQ(c1, 2u);
    total += fold.size();
  }
  EXPECT_EQ(total, d.size());
}

TEST(Dataset, FoldsPartitionWithoutDuplicates) {
  util::Rng rng(12);
  Dataset d = two_class_schema();
  for (int i = 0; i < 55; ++i) d.add({1.0 * i, 0}, i % 2);
  const auto folds = d.stratified_folds(7, rng);
  std::vector<bool> seen(d.size(), false);
  for (const auto& fold : folds)
    for (const std::size_t i : fold) {
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(Dataset, RejectsBadInput) {
  Dataset d = two_class_schema();
  EXPECT_THROW(d.add({1.0}, 0), std::exception);       // wrong arity
  EXPECT_THROW(d.add({1.0, 2.0}, 5), std::exception);  // bad label
  util::Rng rng(1);
  EXPECT_THROW(d.stratified_folds(1, rng), std::exception);
}

// ---- evaluation ---------------------------------------------------------------

TEST(ConfusionMatrix, AccuracyAndRates) {
  ml::ConfusionMatrix cm({"good", "bad-fs"});
  for (int i = 0; i < 90; ++i) cm.record(0, 0);
  for (int i = 0; i < 5; ++i) cm.record(0, 1);  // false positives
  for (int i = 0; i < 4; ++i) cm.record(1, 1);
  cm.record(1, 0);  // miss
  EXPECT_EQ(cm.total(), 100u);
  EXPECT_EQ(cm.correct(), 94u);
  EXPECT_NEAR(cm.accuracy(), 0.94, 1e-12);
  EXPECT_NEAR(cm.false_positive_rate(1), 5.0 / 95.0, 1e-12);
  EXPECT_NEAR(cm.recall(1), 0.8, 1e-12);
  EXPECT_NEAR(cm.precision(1), 4.0 / 9.0, 1e-12);
}

TEST(CrossValidation, HighAccuracyOnSeparableData) {
  util::Rng rng(13);
  const Dataset d = separable(60, rng);
  util::Rng cv_rng(14);
  const auto result = ml::cross_validate(ml::C45Tree(), d, 10, cv_rng);
  EXPECT_GT(result.accuracy, 0.95);
  EXPECT_EQ(result.fold_accuracy.size(), 10u);
  EXPECT_EQ(result.confusion.total(), d.size());
}

TEST(CrossValidation, DeterministicGivenRngSeed) {
  util::Rng rng(15);
  const Dataset d = three_class(40, rng);
  util::Rng r1(77), r2(77);
  const auto a = ml::cross_validate(ml::C45Tree(), d, 10, r1);
  const auto b = ml::cross_validate(ml::C45Tree(), d, 10, r2);
  EXPECT_EQ(a.confusion.correct(), b.confusion.correct());
}

// ---- io ------------------------------------------------------------------------

TEST(Io, ArffHasWekaStructure) {
  util::Rng rng(17);
  const Dataset d = separable(5, rng);
  std::stringstream ss;
  ml::write_arff(d, "fsml_training", ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("@relation fsml_training"), std::string::npos);
  EXPECT_NE(text.find("@attribute a numeric"), std::string::npos);
  EXPECT_NE(text.find("@attribute class {neg,pos}"), std::string::npos);
  EXPECT_NE(text.find("@data"), std::string::npos);
}

// ---- versioned model container ---------------------------------------------

ml::C45Tree trained_tree() {
  util::Rng rng(21);
  ml::C45Tree tree;
  tree.train(three_class(40, rng));
  return tree;
}

TEST(ModelIo, RoundTripIsBitIdentical) {
  util::Rng rng(21);
  const Dataset d = three_class(40, rng);
  const ml::C45Tree tree = trained_tree();
  std::stringstream ss;
  ml::save_model(tree, ss);
  const ml::C45Tree loaded = ml::load_model(ss);
  for (const auto& inst : d.instances())
    EXPECT_EQ(loaded.predict(inst.x), tree.predict(inst.x));
  // Re-serializing the loaded tree reproduces the file byte for byte.
  std::stringstream again;
  ml::save_model(loaded, again);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(ModelIo, ContainerCarriesVersionSchemaAndCrc) {
  std::stringstream ss;
  ml::save_model(trained_tree(), ss);
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("fsml-model v2\n", 0), 0u);
  EXPECT_NE(text.find("\nschema "), std::string::npos);
  EXPECT_NE(text.find("\npayload "), std::string::npos);
  EXPECT_NE(text.find("crc32 "), std::string::npos);
}

TEST(ModelIo, RejectsFlippedPayloadByte) {
  std::stringstream ss;
  ml::save_model(trained_tree(), ss);
  std::string text = ss.str();
  const std::size_t pos = text.find("fsml-c45");  // inside the payload
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'F';
  std::stringstream corrupt(text);
  try {
    ml::load_model(corrupt);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("retrain"), std::string::npos);
  }
}

TEST(ModelIo, RejectsTruncatedPayload) {
  std::stringstream ss;
  ml::save_model(trained_tree(), ss);
  const std::string text = ss.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  try {
    ml::load_model(truncated);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(ModelIo, RejectsUnsupportedFormatVersion) {
  std::stringstream ss;
  ml::save_model(trained_tree(), ss);
  std::string text = ss.str();
  text.replace(text.find(" v2\n"), 4, " v9\n");
  std::stringstream wrong(text);
  try {
    ml::load_model(wrong);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v9"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("not supported"), std::string::npos);
  }
}

TEST(ModelIo, RejectsForeignMagic) {
  std::stringstream ss("definitely-not-a-model\n");
  EXPECT_THROW(ml::load_model(ss), std::runtime_error);
}

TEST(ModelIo, LegacyBarePayloadStillLoads) {
  util::Rng rng(21);
  const Dataset d = three_class(40, rng);
  const ml::C45Tree tree = trained_tree();
  std::stringstream legacy;
  tree.save(legacy);  // pre-container format
  const ml::C45Tree loaded = ml::load_model(legacy);
  for (const auto& inst : d.instances())
    EXPECT_EQ(loaded.predict(inst.x), tree.predict(inst.x));
}

TEST(ModelIo, FileRoundTripThroughAtomicWrite) {
  const std::string path = unique_temp_path("model_io_test.model");
  std::remove(path.c_str());
  const ml::C45Tree tree = trained_tree();
  ml::save_model_file(tree, path);
  const ml::C45Tree loaded = ml::load_model_file(path);
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());
  std::remove(path.c_str());
}

TEST(ModelIo, LoadedModelAnswersBitIdentically) {
  // A model file holds the only persisted copy of the tree: one trained on
  // missing values must come back from the checksummed container, stream
  // and atomic file alike, answering every vector with the same bits.
  util::Rng rng(31);
  const Dataset d = with_missing_values(three_class(70, rng), 0.1, rng);
  ml::C45Tree tree;
  tree.train(d);

  std::stringstream stream;
  ml::save_model(tree, stream);
  expect_same_answers(tree, ml::load_model(stream), d, 301);

  const std::string path = unique_temp_path("bit_identity.model");
  std::remove(path.c_str());
  ml::save_model_file(tree, path);
  expect_same_answers(tree, ml::load_model_file(path), d, 302);
  std::remove(path.c_str());
}

TEST(ModelIo, MissingFileErrorSaysHowToTrain) {
  try {
    ml::load_model_file(::testing::TempDir() + "fsml_no_such.model");
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fsml_analyze train"),
              std::string::npos);
  }
}

}  // namespace

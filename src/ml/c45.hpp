// C45Tree: a from-scratch implementation of the C4.5 decision-tree learner
// (Quinlan 1992) in the configuration Weka's J48 uses by default — the
// classifier the paper selected after comparing several (Section 3).
//
// Supported features (continuous attributes, which is all our data has):
//  * binary threshold splits on continuous attributes;
//  * split selection by gain ratio among attributes with at least average
//    information gain (C4.5's two-stage criterion);
//  * the Release-8 MDL correction for continuous splits
//    (gain -= log2(#candidate thresholds)/n);
//  * minimum-instances-per-leaf stopping (J48 default 2);
//  * pessimistic error pruning with confidence factor 0.25 (J48 default),
//    using the binomial upper-confidence error estimate;
//  * Quinlan's fractional-instance missing-value handling: gains are
//    computed on known values and scaled by the known fraction, instances
//    missing the split attribute descend both branches with proportional
//    weights, and classification of a vector with NaN slots combines the
//    branch distributions the same way. Training and classifying datasets
//    without missing values is bit-identical to a tree without this
//    machinery (weights are exactly 1.0 and all scale factors cancel).
//
// The learned tree can be rendered as text (the paper's Figure 2) and
// serialized/deserialized for model persistence.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>

#include "ml/classifier.hpp"

namespace fsml::ml {

struct C45Params {
  std::size_t min_leaf_instances = 2;   ///< J48 "-M 2"
  bool prune = true;                    ///< pessimistic pruning on/off
  bool mdl_correction = true;           ///< C4.5 Rel-8 continuous-split fix
};

class C45Tree final : public Classifier {
 public:
  /// J48 "-C 0.25": the pruning strength.
  static constexpr double kConfidenceFactor = 0.25;
  /// Safety bound: training stops splitting at this depth, and load()
  /// rejects a tree that nests deeper.
  static constexpr int kMaxDepth = 64;

  explicit C45Tree(C45Params params = {});
  C45Tree(const C45Tree& other);
  C45Tree(C45Tree&&) noexcept = default;
  C45Tree& operator=(C45Tree&&) noexcept = default;
  ~C45Tree() override;

  void train(const Dataset& data) override;
  /// predict() and distribution() throw util::CheckFailure before training
  /// and on a vector shorter than the training schema. predict() does not
  /// allocate for up to 16 classes, NaN slots included.
  int predict(std::span<const double> x) const override;
  std::vector<double> distribution(std::span<const double> x) const override;
  std::string describe() const override;
  std::string name() const override {
    return params_.prune ? "J48 (C4.5)" : "J48 (C4.5, unpruned)";
  }
  bool handles_missing() const override { return true; }
  std::unique_ptr<Classifier> make_untrained() const override;

  /// Leaf count / total node count of the trained tree (Figure 2 reports
  /// "6 leaves and 11 nodes").
  std::size_t num_leaves() const;
  std::size_t num_nodes() const;

  /// Attribute indices actually used at decision nodes (Figure 2 shows the
  /// model uses only 4 of the 15 features).
  std::vector<std::size_t> used_attributes() const;

  /// Serialization: a small line-oriented text format. This is the *raw*
  /// payload; durable model files wrap it in the versioned, checksummed
  /// container of ml/io.hpp (save_model/load_model). load() rejects a tree
  /// that could not have been trained on its own header: a split on an
  /// attribute past the schema, a leaf class or count vector that does not
  /// fit the class count, or nesting deeper than kMaxDepth.
  void save(std::ostream& os) const;
  static C45Tree load(std::istream& is);

  /// Training schema (set by train() or load()); empty before either.
  const std::vector<std::string>& attribute_names() const {
    return attribute_names_;
  }
  const std::vector<std::string>& class_names() const { return class_names_; }

  struct Node;  // exposed for white-box tests

  /// Root access for structural tests; nullptr before train().
  const Node* root() const { return root_.get(); }

 private:
  C45Params params_;
  std::unique_ptr<Node> root_;
  std::vector<std::string> attribute_names_;
  std::vector<std::string> class_names_;
};

/// Tree node. Leaves carry a class distribution; internal nodes carry a
/// threshold test "x[attribute] <= threshold ? left : right".
struct C45Tree::Node {
  bool is_leaf = true;
  int predicted_class = 0;
  std::vector<double> class_counts;  ///< training distribution at this node
  double training_errors = 0.0;      ///< misclassified training instances

  std::size_t attribute = 0;
  double threshold = 0.0;
  std::unique_ptr<Node> left;   ///< x[attribute] <= threshold
  std::unique_ptr<Node> right;  ///< x[attribute] >  threshold

  std::size_t count_leaves() const;
  std::size_t count_nodes() const;
};

// ---- information-theory helpers (exposed for unit tests) -------------------

/// Shannon entropy in bits of a count vector.
double entropy(std::span<const double> counts);

/// Binomial upper-confidence-bound *additional* errors: given `n` instances
/// at a leaf of which `e` are errors, the pessimistic estimate adds this
/// many errors (C4.5's U_CF(e, n) * n - e; Weka Stats::addErrs).
double added_errors(double n, double e, double confidence);

}  // namespace fsml::ml

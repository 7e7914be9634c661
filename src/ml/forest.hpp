// Random forest of C4.5 trees (bagging + per-tree attribute subsampling).
// Included in the classifier-comparison ablation; not used by the paper's
// final pipeline, which picked plain J48.
#pragma once

#include <memory>
#include <vector>

#include "ml/c45.hpp"
#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace fsml::ml {

/// 25 unpruned C4.5 trees, each trained on a bootstrap sample projected onto
/// ceil(sqrt(num_attributes)) randomly drawn attributes; seed 1.
class RandomForest final : public Classifier {
 public:
  void train(const Dataset& data) override;
  int predict(std::span<const double> x) const override;
  std::vector<double> distribution(std::span<const double> x) const override;
  std::string describe() const override;
  std::string name() const override { return "RandomForest"; }
  std::unique_ptr<Classifier> make_untrained() const override;

  std::size_t num_trees() const { return trees_.size(); }

 private:
  struct Member {
    C45Tree tree;
    std::vector<std::size_t> attributes;  ///< projected attribute indices
    Member(C45Tree t, std::vector<std::size_t> a)
        : tree(std::move(t)), attributes(std::move(a)) {}
  };

  std::vector<Member> trees_;
};

}  // namespace fsml::ml

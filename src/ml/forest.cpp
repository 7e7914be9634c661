#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/check.hpp"

namespace fsml::ml {

namespace {

constexpr std::size_t kNumTrees = 25;
constexpr std::uint64_t kSeed = 1;

}  // namespace

void RandomForest::train(const Dataset& data) {
  FSML_CHECK_MSG(!data.empty(), "cannot train on an empty dataset");
  trained_num_classes_ = data.num_classes();
  trees_.clear();
  util::Rng rng(kSeed);

  const std::size_t attrs_per_tree =
      std::min(static_cast<std::size_t>(std::ceil(
                   std::sqrt(static_cast<double>(data.num_attributes())))),
               data.num_attributes());

  std::vector<std::size_t> all_attrs(data.num_attributes());
  std::iota(all_attrs.begin(), all_attrs.end(), 0);

  for (std::size_t t = 0; t < kNumTrees; ++t) {
    // Attribute subsample.
    std::vector<std::size_t> attrs = all_attrs;
    util::shuffle(attrs.begin(), attrs.end(), rng);
    attrs.resize(attrs_per_tree);
    std::sort(attrs.begin(), attrs.end());

    // Projected schema + bootstrap sample.
    std::vector<std::string> names;
    names.reserve(attrs.size());
    for (const std::size_t a : attrs) names.push_back(data.attribute_names()[a]);
    Dataset boot(names, data.class_names());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const Instance& src = data.at(rng.next_below(data.size()));
      std::vector<double> x;
      x.reserve(attrs.size());
      for (const std::size_t a : attrs) x.push_back(src.x[a]);
      boot.add(std::move(x), src.y);
    }

    C45Tree tree(C45Params{.prune = false});
    tree.train(boot);
    trees_.emplace_back(std::move(tree), std::move(attrs));
  }
}

std::vector<double> RandomForest::distribution(
    std::span<const double> x) const {
  FSML_CHECK_MSG(!trees_.empty(), "RandomForest is not trained");
  std::vector<double> votes(trained_num_classes_, 0.0);
  std::vector<double> projected;
  for (const Member& m : trees_) {
    projected.clear();
    for (const std::size_t a : m.attributes) projected.push_back(x[a]);
    votes[static_cast<std::size_t>(m.tree.predict(projected))] += 1.0;
  }
  for (double& v : votes) v /= static_cast<double>(trees_.size());
  return votes;
}

int RandomForest::predict(std::span<const double> x) const {
  const auto votes = distribution(x);
  return static_cast<int>(std::distance(
      votes.begin(), std::max_element(votes.begin(), votes.end())));
}

std::string RandomForest::describe() const {
  std::ostringstream os;
  os << "random forest of " << trees_.size() << " unpruned C4.5 trees\n";
  return os.str();
}

std::unique_ptr<Classifier> RandomForest::make_untrained() const {
  return std::make_unique<RandomForest>();
}

}  // namespace fsml::ml

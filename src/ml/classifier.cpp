#include "ml/classifier.hpp"

#include "util/check.hpp"

namespace fsml::ml {

std::vector<double> Classifier::distribution(std::span<const double> x) const {
  FSML_CHECK_MSG(trained_num_classes_ > 0, "classifier is not trained");
  std::vector<double> dist(trained_num_classes_, 0.0);
  dist[static_cast<std::size_t>(predict(x))] = 1.0;
  return dist;
}

}  // namespace fsml::ml
